"""Geometric timestep allocation driven by trace complexity."""

import numpy as np
import pytest

from spikeprune import (InvalidInputError, RandomStream, TimestepPlan,
                        allocate_timesteps, scale_plan, timestep_allocation)
from spikeprune.temporal import layer_importance


class TestTimestepAllocation:
    def test_worked_example(self):
        # base 1.02, gap of 2: floor(100/1.02^2) = floor(96.116...) = 96
        got = timestep_allocation([3, 5], 1.02, 100)
        assert got.tolist() == [96, 100]

    def test_second_worked_example(self):
        # base 1.3, T=40: gaps 3 and 2 give floor(40/2.197)=18, floor(40/1.69)=23
        got = timestep_allocation([1, 2, 4], 1.3, 40)
        assert got.tolist() == [18, 23, 40]

    def test_max_complexity_keeps_full_budget(self):
        for base in (1.01, 1.3, 2.0):
            got = timestep_allocation([0, 7, 3], base, 57)
            assert got[1] == 57
            assert got.max() == 57

    def test_shift_invariance(self):
        a = timestep_allocation([2, 4, 9], 1.2, 64)
        b = timestep_allocation([102, 104, 109], 1.2, 64)
        assert np.array_equal(a, b)

    def test_monotone_in_complexity(self):
        got = timestep_allocation([1, 3, 5, 7, 9], 1.4, 80)
        assert (np.diff(got) >= 0).all()

    def test_floor_of_one(self):
        got = timestep_allocation([0, 50], 2.0, 10)
        assert got.tolist() == [1, 10]

    def test_equal_complexities_all_full(self):
        got = timestep_allocation([4, 4, 4], 1.5, 25)
        assert got.tolist() == [25, 25, 25]

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            timestep_allocation([1, 2], 1.0, 10)
        with pytest.raises(InvalidInputError):
            timestep_allocation([1, 2], 0.9, 10)
        with pytest.raises(InvalidInputError):
            timestep_allocation([1, 2], 1.1, 0)
        with pytest.raises(InvalidInputError):
            timestep_allocation([], 1.1, 10)
        for base in (float("nan"), float("inf")):
            with pytest.raises(InvalidInputError, match="finite"):
                timestep_allocation([3, 5, 5], base, 40)


class TestAllocateTimesteps:
    def test_layout_is_trace_order(self):
        c = [1, 2, 3, 4, 5, 6, 6, 5, 4, 3, 2, 1]
        plan = allocate_timesteps(c, 1.3, 40)
        assert plan.num_layers == 2
        flat = timestep_allocation(c, 1.3, 40)
        assert np.array_equal(plan.steps, flat.reshape(2, 6))
        assert plan.get(0, "key") == flat[0]
        assert plan.get(1, "output") == flat[11]

    def test_non_multiple_of_six_rejected(self):
        with pytest.raises(InvalidInputError, match="multiple"):
            allocate_timesteps([1, 2, 3], 1.3, 40)


class TestLayerImportance:
    def test_constant_trace_needs_one_component(self):
        tr = np.ones((10, 4)) * 0.3
        assert layer_importance([tr], 0.99).tolist() == [1]

    def test_rank_structure_recovered(self):
        t = np.linspace(0, 2 * np.pi, 50)
        rank2 = np.stack([np.sin(t), np.cos(t), np.sin(t) + np.cos(t)], axis=1)
        assert layer_importance([rank2], 0.999999).tolist() == [2]

    def test_accepts_trace_objects(self):
        class T:
            def __init__(self, name, asr):
                self.name = name
                self.asr = asr

        stream = RandomStream(3)
        traces = [T("L0.key", stream.uniform((8, 5))),
                  T("L0.value", np.ones((8, 5)))]
        c = layer_importance(traces, 0.9999)
        assert c.shape == (2,)
        assert c[0] >= c[1] == 1

    def test_short_trace_rejected(self):
        with pytest.raises(InvalidInputError, match="timesteps"):
            layer_importance([np.ones((1, 4))], 0.99)
        with pytest.raises(InvalidInputError):
            layer_importance([], 0.99)


class TestScalePlan:
    def test_rho_quarter_worked_example(self):
        plan = TimestepPlan(np.array([[40, 40, 40, 40, 40, 40],
                                      [10, 7, 3, 2, 1, 40]]))
        small = scale_plan(plan, 0.25)
        assert small.steps[0].tolist() == [10] * 6
        assert small.steps[1].tolist() == [2, 1, 1, 1, 1, 10]

    def test_rho_one_is_identity(self):
        plan = TimestepPlan(np.array([[5, 9, 13, 2, 1, 40]]))
        assert scale_plan(plan, 1.0) == plan

    def test_original_untouched(self):
        plan = TimestepPlan.uniform(1, 8)
        scale_plan(plan, 0.5)
        assert plan.steps[0, 0] == 8

    def test_validation(self):
        plan = TimestepPlan.uniform(1, 8)
        with pytest.raises(InvalidInputError):
            scale_plan(plan, 0.0)
        with pytest.raises(InvalidInputError):
            scale_plan(plan, 1.5)
