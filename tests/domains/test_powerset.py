"""Tests for the powerset domain A_P, brute-force checked."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domains.box import IntervalDomain
from repro.domains.powerset import PowersetDomain
from repro.lang.eval import eval_bool
from repro.lang.secrets import SecretSpec
from repro.solver.boxes import Box
from tests.domains import oracle
from tests.strategies import boxes_within

SPEC = SecretSpec.declare("S", x=(0, 9), y=(0, 9))
SPACE = Box(SPEC.bounds())


def _points_of(domain: PowersetDomain) -> set:
    return {p for p in SPACE.iter_points() if domain.contains(p)}


powersets = st.builds(
    lambda inc, exc: PowersetDomain(SPEC, tuple(inc), tuple(exc)),
    st.lists(boxes_within(SPACE), max_size=3),
    st.lists(boxes_within(SPACE), max_size=2),
)


class TestConstruction:
    def test_top(self):
        assert PowersetDomain.top(SPEC).size() == 100

    def test_bottom(self):
        bottom = PowersetDomain.bottom(SPEC)
        assert bottom.size() == 0
        assert bottom.is_empty()

    def test_from_interval(self):
        interval = IntervalDomain(SPEC, Box.make((1, 2), (3, 4)))
        lifted = PowersetDomain.from_interval(interval)
        assert _points_of(lifted) == {
            p for p in SPACE.iter_points() if interval.contains(p)
        }

    def test_from_empty_interval(self):
        lifted = PowersetDomain.from_interval(IntervalDomain.bottom(SPEC))
        assert lifted.is_empty()

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="global bounds"):
            PowersetDomain(SPEC, (Box.make((0, 10), (0, 9)),), ())


class TestCachedValues:
    @settings(max_examples=60, deadline=None)
    @given(powersets)
    def test_equal_domains_hash_equal_and_sizes_stay_exact(self, domain):
        twin = PowersetDomain(SPEC, tuple(domain.include), tuple(domain.exclude))
        assert hash(twin) == hash(domain) and twin == domain
        assert domain.size() == len(_points_of(domain))
        assert domain.size() == twin.size()  # cached on first call

    def test_pickling_drops_the_process_local_hash(self):
        import pickle

        domain = PowersetDomain(SPEC, (Box.make((0, 5), (0, 5)),), ())
        hash(domain)
        clone = pickle.loads(pickle.dumps(domain))
        assert "_hash_cache" not in clone.__dict__
        assert clone == domain and hash(clone) == hash(domain)


class TestSemantics:
    def test_membership_include_exclude(self):
        domain = PowersetDomain(
            SPEC, (Box.make((0, 5), (0, 5)),), (Box.make((2, 3), (2, 3)),)
        )
        assert domain.contains((0, 0))
        assert not domain.contains((2, 2))  # excluded
        assert not domain.contains((9, 9))  # never included

    @given(powersets)
    @settings(max_examples=80, deadline=None)
    def test_size_is_exact(self, domain):
        assert domain.size() == len(_points_of(domain))

    @given(powersets)
    @settings(max_examples=60, deadline=None)
    def test_pieces_partition_the_domain(self, domain):
        covered = [p for piece in domain.pieces() for p in piece.iter_points()]
        assert set(covered) == _points_of(domain)
        assert len(covered) == len(set(covered))

    @given(powersets, powersets)
    @settings(max_examples=60, deadline=None)
    def test_subset_is_exact(self, a, b):
        assert a.is_subset(b) == (_points_of(a) <= _points_of(b))

    @given(powersets, powersets)
    @settings(max_examples=60, deadline=None)
    def test_intersection_semantics(self, a, b):
        result = a.intersect(b)
        assert _points_of(result) == _points_of(a) & _points_of(b)

    def test_intersect_with_interval_lifts(self):
        powerset = PowersetDomain(SPEC, (Box.make((0, 5), (0, 5)),), ())
        interval = IntervalDomain(SPEC, Box.make((3, 9), (3, 9)))
        result = powerset.intersect(interval)
        assert _points_of(result) == {
            p
            for p in SPACE.iter_points()
            if powerset.contains(p) and interval.contains(p)
        }

    @given(powersets)
    @settings(max_examples=60, deadline=None)
    def test_member_formula_semantics(self, domain):
        formula = domain.member_formula()
        for point in list(SPACE.iter_points())[::3]:
            env = dict(zip(SPEC.field_names, point))
            assert eval_bool(formula, env) == domain.contains(point)

    @given(powersets)
    @settings(max_examples=60, deadline=None)
    def test_normalized_preserves_semantics(self, domain):
        assert _points_of(domain.normalized()) == _points_of(domain)
        assert not domain.normalized().exclude

    def test_size_disjoint_estimate_on_synthesis_invariant(self):
        # Disjoint includes, excludes inside the include region: the
        # paper's formula is exact here.
        domain = PowersetDomain(
            SPEC,
            (Box.make((0, 3), (0, 9)), Box.make((5, 9), (0, 9))),
            (Box.make((0, 1), (0, 1)),),
        )
        assert domain.size_disjoint_estimate() == domain.size()

    def test_size_disjoint_estimate_overlapping_is_not_exact(self):
        domain = PowersetDomain(
            SPEC, (Box.make((0, 5), (0, 5)), Box.make((0, 5), (0, 5))), ()
        )
        assert domain.size_disjoint_estimate() == 72
        assert domain.size() == 36


class TestFlatPathMatchesTheGeneralAlgebra:
    """Flat domains skip ``_prune`` and ``subtract_boxes``; the results
    must still be the reference algebra's include/exclude tuples."""

    @given(oracle.any_powersets(SPEC))
    @settings(max_examples=150, deadline=None)
    def test_flatness_is_detected(self, domain):
        assert domain.is_flat() == oracle.is_flat(domain)

    @given(oracle.any_powersets(SPEC), oracle.any_powersets(SPEC))
    @settings(max_examples=200, deadline=None)
    def test_intersect(self, a, b):
        got = a.intersect(b)
        oracle.assert_same_tuples(got, oracle.intersect(a, b))
        if oracle.is_flat(a) and oracle.is_flat(b):
            assert got.is_flat() and oracle.is_flat(got)

    @given(oracle.flat_powersets(SPEC), oracle.flat_powersets(SPEC), oracle.flat_powersets(SPEC))
    @settings(max_examples=100, deadline=None)
    def test_flat_chains_stay_flat(self, a, b, c):
        got = a.intersect(b).intersect(c)
        assert got.is_flat() and oracle.is_flat(got)
        oracle.assert_same_tuples(got, oracle.intersect(oracle.intersect(a, b), c))

    @given(oracle.any_powersets(SPEC), oracle.any_powersets(SPEC))
    @settings(max_examples=150, deadline=None)
    def test_pieces_size_and_subset(self, a, b):
        assert a.pieces() == oracle.pieces(a)
        assert a.size() == oracle.size(a)
        assert a.is_empty() == (oracle.size(a) == 0)
        assert a.is_subset(b) == oracle.is_subset(a, b)
        assert a.pruned() == PowersetDomain(SPEC, *oracle.prune(a.include, a.exclude))

    @given(oracle.any_powersets(SPEC), oracle.any_powersets(SPEC))
    @settings(max_examples=100, deadline=None)
    def test_forced_general_path_agrees(self, a, b):
        """The kept ``_prune``/``subtract_boxes`` path, forced for every
        domain, builds the same tuples the fast path does."""
        fast = a.intersect(b)
        fresh = [PowersetDomain(SPEC, d.include, d.exclude) for d in (a, b)]
        with mock.patch.object(PowersetDomain, "is_flat", lambda self: False):
            general = fresh[0].intersect(fresh[1])
            assert general.pieces() == oracle.pieces(general)
        assert (general.include, general.exclude) == (fast.include, fast.exclude)
