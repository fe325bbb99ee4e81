"""Measure layer: hand-computed values for all three measures, the algebraic
relation between plain and modified ambiguity, degenerate-mass handling,
validation, normalized entropy, agreement of the array fast paths with
the scalar functions, the one-pass kernel that computes several
measures of a block at once, and the plug-in of a count vector against an
exact rational oracle.
"""

import itertools
import math

import numpy as np
import pytest

import ambiq
import ambiq.frequentist
from ambiq.exceptions import (
    DomainError,
    EmptySample,
    InternalConsistencyError,
    SingleCategoryUnsupported,
)
from ambiq.measures import (
    DEGENERACY_THRESHOLD,
    CategorySchema,
    CountVector,
    MeasureKind,
    ProbabilityVector,
    _check_array_range,
    ambiguity,
    ambiguity_array,
    ambiguity_modified,
    ambiguity_new,
    ambiguity_old,
    measure_arrays,
    modified_from_new,
    normalized_entropy,
    plugin_estimate,
)
from ambiq.numerics import DirichletParams, dirichlet_sample
from plugin_oracle import measures_of, plugin_fraction, random_count_vectors


def random_soft_labels(rng, count, n_proper, max_cs=0.95):
    """Random simplex points with a bounded cs mass, as (proper, cs) arrays."""
    raw = rng.gamma(1.0, size=(count, n_proper + 1))
    raw /= raw.sum(axis=1, keepdims=True)
    keep = raw[:, -1] <= max_cs
    return raw[keep, :-1], raw[keep, -1]


def masked_formula(proper, cs, kind):
    """Each measure's array formula evaluated on the live rows only, with 1
    on the rows whose cs mass is degenerate (or NaN). Row sums add the
    columns left to right."""
    n_cat = proper.shape[1]
    one_minus = 1.0 - cs
    out = np.ones_like(cs)
    live = one_minus > 1.0 - DEGENERACY_THRESHOLD
    sq = sum(proper[:, j] * proper[:, j] for j in range(n_cat))
    if kind is MeasureKind.NEW:
        out[live] = 1.0 - sq[live] / one_minus[live]
    elif kind is MeasureKind.MODIFIED:
        flip = one_minus[live] - sq[live] / one_minus[live]
        out[live] = cs[live] + n_cat / (n_cat - 1.0) * flip
    else:
        p = proper[live] / one_minus[live, None]
        tv = sum(np.abs(p[:, j] - 1.0 / n_cat) for j in range(n_cat))
        out[live] = 1.0 - 0.5 * one_minus[live] * n_cat / (n_cat - 1.0) * tv
    return np.clip(out, 0.0, 1.0)


def fsum_reference(q, kind):
    """Each measure's scalar formula with compensated (fsum) sums over the
    categories, 1 on the degenerate branch, clamped to [0, 1]: a reference
    that shares no code with the array kernels, which add left to right."""
    n_cat = q.n_proper
    if q.cs >= DEGENERACY_THRESHOLD:
        return 1.0
    one_minus = 1.0 - q.cs
    if kind is MeasureKind.NEW:
        value = 1.0 - math.fsum(v * v for v in q.proper) / one_minus
    elif kind is MeasureKind.MODIFIED:
        flip = one_minus - math.fsum(v * v for v in q.proper) / one_minus
        value = q.cs + n_cat / (n_cat - 1.0) * flip
    else:
        tv = math.fsum(abs(v / one_minus - 1.0 / n_cat) for v in q.proper)
        value = 1.0 - 0.5 * one_minus * n_cat / (n_cat - 1.0) * tv
    assert -1e-12 <= value <= 1.0 + 1e-12
    return min(1.0, max(0.0, value))


class TestAmbiguityNew:
    def test_certain_answer_scores_zero(self):
        assert ambiguity_new(ProbabilityVector((1.0, 0.0), 0.0)) == 0.0

    def test_hand_values_binary(self):
        # 1 - (q1^2 + q2^2)/(1 - q_cs)
        assert ambiguity_new(ProbabilityVector((0.5, 0.5), 0.0)) == pytest.approx(0.5)
        assert ambiguity_new(ProbabilityVector((0.8, 0.2), 0.0)) == pytest.approx(0.32)
        assert ambiguity_new(ProbabilityVector((0.25, 0.25), 0.5)) == pytest.approx(0.75)

    def test_all_cs_scores_one(self):
        assert ambiguity_new(ProbabilityVector((0.0, 0.0), 1.0)) == 1.0

    def test_single_category_reduces_to_cs_mass(self):
        q = ProbabilityVector((0.7,), 0.3)
        assert ambiguity_new(q) == pytest.approx(0.3, abs=1e-15)

    def test_uniform_conditional_identity(self):
        # Uniform over proper categories: amb = 1 - (1 - q_cs)/C.
        for n_cat in (2, 3, 5):
            for cs in (0.0, 0.2, 0.6):
                q = ProbabilityVector(((1.0 - cs) / n_cat,) * n_cat, cs)
                assert ambiguity_new(q) == pytest.approx(
                    1.0 - (1.0 - cs) / n_cat, abs=1e-12
                )

    def test_maximum_only_at_full_cs(self):
        rng = np.random.default_rng(0)
        proper, cs = random_soft_labels(rng, 200, 3)
        for row, c in zip(proper, cs):
            assert ambiguity_new(ProbabilityVector(tuple(row), c)) < 1.0


class TestAmbiguityModified:
    def test_uniform_conditional_saturates(self):
        assert ambiguity_modified(ProbabilityVector((0.5, 0.5), 0.0)) == 1.0
        assert ambiguity_modified(ProbabilityVector((0.25, 0.25), 0.5)) == 1.0

    def test_hand_value(self):
        # q = (0.8, 0.2 | 0): cs + 2 * (1 - 0.68) = 0.64
        assert ambiguity_modified(ProbabilityVector((0.8, 0.2), 0.0)) == pytest.approx(0.64)

    def test_dominates_new(self):
        rng = np.random.default_rng(1)
        for n_cat in (2, 3, 6):
            proper, cs = random_soft_labels(rng, 300, n_cat)
            for row, c in zip(proper, cs):
                q = ProbabilityVector(tuple(row), c)
                assert ambiguity_modified(q) >= ambiguity_new(q) - 1e-12

    def test_relation_to_new_is_exact(self):
        rng = np.random.default_rng(2)
        for n_cat in (2, 4):
            proper, cs = random_soft_labels(rng, 500, n_cat)
            for row, c in zip(proper, cs):
                q = ProbabilityVector(tuple(row), c)
                via_relation = modified_from_new(ambiguity_new(q), q.cs, n_cat)
                assert abs(ambiguity_modified(q) - via_relation) <= 1e-12

    def test_single_category_rejected(self):
        with pytest.raises(SingleCategoryUnsupported):
            ambiguity_modified(ProbabilityVector((0.4,), 0.6))

    def test_degenerate_cs(self):
        assert ambiguity_modified(ProbabilityVector((0.0, 0.0), 1.0)) == 1.0


class TestModifiedFromNew:
    def test_c_two_formula(self):
        assert modified_from_new(0.5, 0.0, 2) == pytest.approx(1.0)
        assert modified_from_new(0.32, 0.0, 2) == pytest.approx(0.64)

    def test_validation(self):
        with pytest.raises(SingleCategoryUnsupported):
            modified_from_new(0.5, 0.0, 1)
        with pytest.raises(DomainError):
            modified_from_new(1.5, 0.0, 2)
        with pytest.raises(DomainError):
            modified_from_new(0.5, -0.1, 2)


class TestAmbiguityOld:
    def test_uniform_conditional_saturates(self):
        assert ambiguity_old(ProbabilityVector((0.5, 0.5), 0.0)) == 1.0
        assert ambiguity_old(ProbabilityVector((0.25, 0.25), 0.5)) == 1.0

    def test_certain_answer_scores_zero(self):
        assert ambiguity_old(ProbabilityVector((1.0, 0.0), 0.0)) == 0.0

    def test_hand_value_binary(self):
        # p = (0.8, 0.2): TV sum = 0.6, value = 1 - 0.5*1*2*0.6 = 0.4
        assert ambiguity_old(ProbabilityVector((0.8, 0.2), 0.0)) == pytest.approx(0.4)

    def test_compresses_upper_range(self):
        # Near-uniform conditionals score higher than under the new measure.
        q = ProbabilityVector((0.6, 0.4), 0.0)
        assert ambiguity_old(q) > ambiguity_new(q)

    def test_single_category_rejected(self):
        with pytest.raises(SingleCategoryUnsupported):
            ambiguity_old(ProbabilityVector((1.0,), 0.0))

    def test_degenerate_cs(self):
        assert ambiguity_old(ProbabilityVector((0.0, 0.0, 0.0), 1.0)) == 1.0


class TestDispatch:
    def test_matches_direct_calls(self):
        q = ProbabilityVector((0.6, 0.3), 0.1)
        assert ambiguity(q, MeasureKind.NEW) == ambiguity_new(q)
        assert ambiguity(q, MeasureKind.MODIFIED) == ambiguity_modified(q)
        assert ambiguity(q, MeasureKind.OLD) == ambiguity_old(q)

    def test_parse(self):
        assert MeasureKind.parse(" New ") is MeasureKind.NEW
        assert MeasureKind.parse("modified") is MeasureKind.MODIFIED
        with pytest.raises(DomainError):
            MeasureKind.parse("bogus")


class TestBoundedness:
    def test_all_measures_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for n_cat in (2, 3, 4, 5, 6):
            proper, cs = random_soft_labels(rng, 400, n_cat, max_cs=1.0)
            for row, c in zip(proper, cs):
                q = ProbabilityVector(tuple(row), c)
                for kind in MeasureKind:
                    value = ambiguity(q, kind)
                    assert 0.0 <= value <= 1.0


class TestProbabilityVector:
    def test_entries_coerced_to_float(self):
        q = ProbabilityVector((1, 0), 0)
        assert q.proper == (1.0, 0.0)
        assert q.cs == 0.0

    def test_rejects_bad_sum(self):
        with pytest.raises(DomainError):
            ProbabilityVector((0.5, 0.6), 0.2)

    def test_rejects_negative_entry(self):
        with pytest.raises(DomainError):
            ProbabilityVector((1.1, -0.1), 0.0)

    def test_rejects_empty_proper(self):
        with pytest.raises(DomainError):
            ProbabilityVector((), 1.0)

    def test_degeneracy_flag(self):
        assert ProbabilityVector((0.0, 0.0), 1.0).is_degenerate
        assert not ProbabilityVector((0.5, 0.5), 0.0).is_degenerate
        assert ProbabilityVector((0.0, 0.0), DEGENERACY_THRESHOLD).is_degenerate


class TestCategorySchema:
    def test_basic(self):
        schema = CategorySchema(labels=("yes", "no"))
        assert schema.n_proper == 2
        assert schema.cs_label == "cs"

    def test_rejects_duplicates_and_collisions(self):
        with pytest.raises(DomainError):
            CategorySchema(labels=("a", "a"))
        with pytest.raises(DomainError):
            CategorySchema(labels=("a", "cs"))
        with pytest.raises(DomainError):
            CategorySchema(labels=())


class TestNormalizedEntropy:
    def test_uniform_is_one(self):
        assert normalized_entropy((0.25,) * 4) == pytest.approx(1.0, abs=1e-15)

    def test_point_mass_is_zero(self):
        assert normalized_entropy((1.0, 0.0, 0.0)) == 0.0

    def test_hand_value(self):
        p = (0.5, 0.5, 0.0)
        assert normalized_entropy(p) == pytest.approx(math.log(2) / math.log(3), abs=1e-14)

    def test_probability_vector_counts_cs_as_category(self):
        # M = C + 1 = 3 here, so uniform over all three entries scores 1.
        q = ProbabilityVector((1 / 3, 1 / 3), 1 / 3)
        assert normalized_entropy(q) == pytest.approx(1.0, abs=1e-12)

    def test_single_category_rejected(self):
        with pytest.raises(SingleCategoryUnsupported):
            normalized_entropy((1.0,))


class TestArrayFastPaths:
    @pytest.fixture()
    def batch(self):
        rng = np.random.default_rng(4)
        proper, cs = random_soft_labels(rng, 500, 3, max_cs=1.0)
        return proper, cs

    @staticmethod
    def reference(proper, cs, kind):
        return [fsum_reference(ProbabilityVector(tuple(r), c), kind) for r, c in zip(proper, cs)]

    def test_new_matches_scalar(self, batch):
        proper, cs = batch
        out = ambiguity_array(proper, cs, MeasureKind.NEW)
        np.testing.assert_allclose(out, self.reference(proper, cs, MeasureKind.NEW), atol=1e-13)

    def test_modified_matches_scalar(self, batch):
        proper, cs = batch
        out = ambiguity_array(proper, cs, MeasureKind.MODIFIED)
        np.testing.assert_allclose(
            out, self.reference(proper, cs, MeasureKind.MODIFIED), atol=1e-13
        )

    def test_old_matches_scalar(self, batch):
        proper, cs = batch
        out = ambiguity_array(proper, cs, MeasureKind.OLD)
        np.testing.assert_allclose(out, self.reference(proper, cs, MeasureKind.OLD), atol=1e-13)

    @pytest.mark.parametrize("n_proper", range(1, 10))
    @pytest.mark.parametrize("kind", list(MeasureKind))
    def test_scalar_is_the_one_row_kernel(self, kind, n_proper):
        # A plug-in value and a Monte Carlo draw of the same vector get the
        # same floats, at every C.
        rng = np.random.default_rng(n_proper)
        proper, cs = random_soft_labels(rng, 200, n_proper, max_cs=1.0)
        for row, c in zip(proper, cs):
            q = ProbabilityVector(tuple(row), c)
            if n_proper == 1 and kind is not MeasureKind.NEW:
                with pytest.raises(SingleCategoryUnsupported):
                    ambiguity(q, kind)
                with pytest.raises(SingleCategoryUnsupported):
                    ambiguity_array(row[None, :], np.array([c]), kind)
                continue
            one_row = ambiguity_array(row[None, :], np.array([c]), kind)[0]
            assert ambiguity(q, kind) == one_row

    def test_degenerate_rows_score_one(self):
        proper = np.array([[0.0, 0.0], [0.5, 0.5]])
        cs = np.array([1.0, 0.0])
        for kind, expected in zip(MeasureKind, ([1.0, 0.5], [1.0, 1.0], [1.0, 1.0])):
            np.testing.assert_allclose(ambiguity_array(proper, cs, kind), expected)

    @pytest.mark.parametrize("n_proper", [2, 3, 7, 8, 9])
    @pytest.mark.parametrize("with_degenerate", [False, True])
    @pytest.mark.parametrize("kind", list(MeasureKind))
    def test_same_floats_as_masked_formula(self, kind, n_proper, with_degenerate):
        # The array functions evaluate every row and then set the
        # degenerate ones; each row must get exactly the floats of the
        # formula evaluated on the live rows alone.
        params = DirichletParams(proper=(0.7,) * n_proper, cs=0.5)
        proper, cs = dirichlet_sample(params, 5000, seed=n_proper)
        if with_degenerate:
            proper, cs = proper.copy(), cs.copy()
            dead_cs = [1.0, DEGENERACY_THRESHOLD, 1.0 - 1e-13, np.nan]
            for row, value in enumerate(dead_cs):
                cs[row] = value
                proper[row] = 0.0 if np.isnan(value) else (1.0 - value) / n_proper
        out = ambiguity_array(proper, cs, kind)
        np.testing.assert_array_equal(out, masked_formula(proper, cs, kind))
        if with_degenerate:
            np.testing.assert_array_equal(out[:4], 1.0)

    @pytest.mark.parametrize("n_proper", range(2, 10))
    @pytest.mark.parametrize("kind", list(MeasureKind))
    def test_same_floats_for_any_memory_layout(self, kind, n_proper):
        # The samplers return column-major proper blocks; a C-ordered copy
        # of the same draws must give exactly the same floats.
        params = DirichletParams(proper=(0.7,) * n_proper, cs=0.5)
        proper, cs = dirichlet_sample(params, 5000, seed=n_proper)
        assert proper.flags.f_contiguous
        c_ordered = np.ascontiguousarray(proper)
        np.testing.assert_array_equal(
            ambiguity_array(c_ordered, cs, kind), ambiguity_array(proper, cs, kind)
        )

    def test_dispatch(self, batch):
        proper, cs = batch
        for kind in MeasureKind:
            np.testing.assert_array_equal(
                ambiguity_array(proper, cs, kind), measure_arrays(proper, cs, (kind,))[0]
            )

    def test_single_category_rejected(self):
        for kind in (MeasureKind.MODIFIED, MeasureKind.OLD):
            with pytest.raises(SingleCategoryUnsupported):
                ambiguity_array(np.ones((3, 1)), np.zeros(3), kind)


KIND_LISTS = [
    tuple(MeasureKind),
    (MeasureKind.OLD, MeasureKind.NEW),
    (MeasureKind.MODIFIED, MeasureKind.OLD, MeasureKind.NEW),
    (MeasureKind.OLD, MeasureKind.OLD),
    (MeasureKind.NEW, MeasureKind.MODIFIED, MeasureKind.NEW),
    (MeasureKind.MODIFIED,),
]


class TestMeasureArrays:
    """The one-pass kernel: every requested measure of a block at once."""

    @staticmethod
    def block(n_proper, with_degenerate):
        params = DirichletParams(proper=(0.7,) * n_proper, cs=0.5)
        proper, cs = dirichlet_sample(params, 3000, seed=10 + n_proper)
        proper, cs = proper.copy(), cs.copy()
        if with_degenerate:
            for row, value in enumerate([1.0, DEGENERACY_THRESHOLD, 1.0 - 1e-13, np.nan]):
                cs[row] = value
                proper[row] = 0.0 if np.isnan(value) else (1.0 - value) / n_proper
        return proper, cs

    @pytest.mark.parametrize("n_proper", [2, 3, 4, 5, 9])
    @pytest.mark.parametrize("with_degenerate", [False, True])
    @pytest.mark.parametrize("kinds", KIND_LISTS)
    def test_rows_equal_the_per_measure_kernels(self, kinds, with_degenerate, n_proper):
        proper, cs = self.block(n_proper, with_degenerate)
        alone = [ambiguity_array(proper, cs, kind) for kind in kinds]
        out = measure_arrays(proper, cs, kinds)
        assert out.shape == (len(kinds), len(cs))
        # A reused workspace holds the last call's values, or anything else.
        work = np.full((len(kinds) + 2, len(cs)), np.nan)
        into_work = measure_arrays(proper, cs, kinds, work)
        assert np.shares_memory(into_work, work)
        for row, kind, values in zip(range(len(kinds)), kinds, alone):
            np.testing.assert_array_equal(out[row], values)
            np.testing.assert_array_equal(into_work[row], values)
            np.testing.assert_array_equal(values, masked_formula(proper, cs, kind))
            if with_degenerate:
                np.testing.assert_array_equal(out[row, :4], 1.0)

    def test_single_category_allows_only_new(self):
        proper, cs = np.array([[0.6], [0.0]]), np.array([0.4, 1.0])
        np.testing.assert_array_equal(
            measure_arrays(proper, cs, (MeasureKind.NEW,))[0], [0.4, 1.0]
        )
        for kinds in ((MeasureKind.NEW, MeasureKind.OLD), (MeasureKind.MODIFIED,)):
            with pytest.raises(SingleCategoryUnsupported):
                measure_arrays(proper, cs, kinds)

    def test_rejects_a_misshaped_workspace(self):
        proper, cs = self.block(3, False)
        with pytest.raises(DomainError):
            measure_arrays(proper, cs, tuple(MeasureKind), np.empty((4, len(cs))))

    def test_no_rows(self):
        out = measure_arrays(np.empty((0, 3)), np.empty(0), tuple(MeasureKind))
        assert out.shape == (3, 0)


class TestRangeCheck:
    def test_clips_only_rounding_noise_outside_the_interval(self):
        values = np.array([-0.0, 0.25, -1e-13, 1.0 + 1e-13])
        _check_array_range(values, "x")
        np.testing.assert_array_equal(values, [0.0, 0.25, 0.0, 1.0])
        # -0.0 is inside [0, 1]; it keeps its sign whether or not the
        # clip runs.
        assert np.signbit(values[0])
        inside = np.array([-0.0, 0.5])
        _check_array_range(inside, "x")
        assert np.signbit(inside[0])

    @pytest.mark.parametrize("bad", [-1e-11, 1.0 + 1e-11])
    def test_rejects_values_beyond_the_tolerance(self, bad):
        with pytest.raises(InternalConsistencyError):
            _check_array_range(np.array([0.5, bad]), "x")


class TestPluginEstimate:
    def test_is_the_correctly_rounded_value(self):
        # 20 000 seeded vectors at C = 1-7: the float kernel at the
        # frequencies misses the rounded value on about half of them.
        vectors = random_count_vectors(np.random.default_rng(26), 20_000)
        for counts in vectors:
            for kind in measures_of(counts):
                assert plugin_estimate(counts, kind) == float(plugin_fraction(counts, kind))

    @pytest.mark.parametrize("n_proper", range(2, 8))
    def test_end_points_are_exact(self, n_proper):
        for position, votes in itertools.product(range(n_proper), (1, 3, 40)):
            unanimous = [0] * n_proper
            unanimous[position] = votes
            for kind in MeasureKind:
                assert plugin_estimate(CountVector(tuple(unanimous)), kind) == 0.0
        for votes, cs in itertools.product((1, 2, 7), (0, 3)):
            uniform = CountVector((votes,) * n_proper, cs)
            assert plugin_estimate(uniform, MeasureKind.MODIFIED) == 1.0
            assert plugin_estimate(uniform, MeasureKind.OLD) == 1.0
            new = plugin_estimate(uniform, MeasureKind.NEW)
            assert new == float(plugin_fraction(uniform, MeasureKind.NEW))
        for kind in MeasureKind:
            assert plugin_estimate(CountVector((0,) * n_proper, 4), kind) == 1.0

    @pytest.mark.parametrize(
        "proper, kind, value",
        [
            ((3, 0, 0, 0, 0), MeasureKind.OLD, 0.0),
            ((3, 0, 0, 0, 0, 0, 0), MeasureKind.OLD, 0.0),
            ((2, 2, 2, 2, 2), MeasureKind.MODIFIED, 1.0),
            ((4, 1), MeasureKind.MODIFIED, 0.64),
            ((4, 1), MeasureKind.NEW, 0.32),
            ((4, 1), MeasureKind.OLD, 0.4),
        ],
    )
    def test_values_the_float_kernel_misses(self, proper, kind, value):
        counts = CountVector(proper)
        assert ambiguity(counts.as_probability_vector(), kind) != value
        assert plugin_estimate(counts, kind) == value

    def test_permutations_tie(self):
        for kind in MeasureKind:
            values = {
                plugin_estimate(CountVector(proper, 1), kind)
                for proper in itertools.permutations((6, 2, 1, 0))
            }
            assert len(values) == 1

    @pytest.mark.parametrize("kind", [MeasureKind.MODIFIED, MeasureKind.OLD])
    def test_refusals_in_order(self, kind):
        with pytest.raises(EmptySample):
            plugin_estimate(CountVector((0,), 0), kind)
        with pytest.raises(SingleCategoryUnsupported, match=f"^{kind.value} ambiguity needs C >= 2$"):
            plugin_estimate(CountVector((3,), 1), kind)
        with pytest.raises(EmptySample):
            plugin_estimate(CountVector((0, 0), 0), kind)

    def test_one_function_under_every_name(self):
        assert ambiq.plugin_estimate is plugin_estimate
        assert ambiq.frequentist.plugin_estimate is plugin_estimate
