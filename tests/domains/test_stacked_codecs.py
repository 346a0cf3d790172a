"""Tensor codec parity: stacked domain ops vs their scalar references.

The vectorized fleet path rests on three codecs — interval stacking,
powerset include-stacking, and the broadcasted stacked intersections.
Each must be *bit-identical* to the scalar operation it replaces: same
domains (same clamps, same ⊥ rule, same pruning, same candidate order)
and plain Python ``int`` bounds (``np.int64`` leaking into a ``Box``
breaks hashing parity and JSON serialization downstream).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.qinfo import intersect_knowledge, intersect_many
from repro.domains import box as box_domain
from repro.domains import powerset as powerset_domain
from repro.domains.box import IntervalDomain
from repro.domains.powerset import PowersetDomain
from repro.lang.secrets import SecretSpec
from repro.solver.boxes import Box
from repro.solver.vectoreval import AVAILABLE

from tests.domains import oracle
from tests.strategies import boxes_within

pytestmark = pytest.mark.skipif(not AVAILABLE, reason="NumPy not installed")

SPEC = SecretSpec.declare("Codec", x=(-8, 12), y=(0, 15))
OUTER = Box.make((-8, 12), (0, 15))


def interval_domains():
    return st.one_of(
        st.just(IntervalDomain.bottom(SPEC)),
        boxes_within(OUTER).map(lambda b: IntervalDomain(SPEC, b)),
    )


def powerset_domains(k=3):
    return st.lists(boxes_within(OUTER), min_size=1, max_size=k).map(
        lambda boxes: PowersetDomain.from_boxes(SPEC, boxes)
    )


def _assert_python_ints(domain):
    for piece in [] if domain.box is None else [domain.box]:
        for lo, hi in piece.bounds:
            assert type(lo) is int and type(hi) is int


class TestIntervalStacking:
    @settings(deadline=None)
    @given(domains=st.lists(interval_domains(), min_size=1, max_size=6))
    def test_stack_unstack_roundtrip(self, domains):
        lo, hi = box_domain.stack_intervals(domains)
        assert box_domain.unstack_intervals(SPEC, lo, hi) == domains

    @settings(deadline=None)
    @given(
        priors=st.lists(interval_domains(), min_size=1, max_size=6),
        other=interval_domains(),
    )
    def test_intersect_stacked_matches_scalar(self, priors, other):
        stacked = box_domain.intersect_stacked(priors, other)
        for prior, got in zip(priors, stacked):
            want = prior.intersect(other)
            assert got == want
            assert got.size() == want.size()
            _assert_python_ints(got)


class TestPowersetStacking:
    @settings(deadline=None)
    @given(
        priors=st.lists(powerset_domains(), min_size=1, max_size=4),
        other=powerset_domains(),
    )
    def test_intersect_stacked_matches_scalar(self, priors, other):
        stacked = powerset_domain.intersect_stacked(priors, other)
        for prior, got in zip(priors, stacked):
            want = prior.intersect(other)
            assert got == want
            assert got.size() == want.size()

    @settings(max_examples=150, deadline=None)
    @given(
        priors=st.lists(oracle.any_powersets(SPEC), min_size=1, max_size=5),
        other=oracle.any_powersets(SPEC),
    )
    def test_intersect_stacked_matches_the_reference_algebra(self, priors, other):
        """Flat, general and mixed stacks rebuild each prior's result with
        the reference algebra's exact tuples (the scalar ``intersect``
        takes the same flat path, so comparing the two proves nothing)."""
        stacked = powerset_domain.intersect_stacked(priors, other)
        for prior, got in zip(priors, stacked):
            oracle.assert_same_tuples(got, oracle.intersect(prior, other))
            if oracle.is_flat(prior) and oracle.is_flat(other):
                assert got.is_flat() and oracle.is_flat(got)
            for lo, hi in (pair for box in got.include for pair in box.bounds):
                assert type(lo) is int and type(hi) is int

    @settings(deadline=None)
    @given(
        priors=st.lists(powerset_domains(), min_size=1, max_size=4),
        other=interval_domains(),
    )
    def test_interval_other_is_lifted(self, priors, other):
        stacked = powerset_domain.intersect_stacked(priors, other)
        for prior, got in zip(priors, stacked):
            assert got == intersect_knowledge(prior, other)


class TestIntersectMany:
    @settings(deadline=None)
    @given(
        priors=st.lists(
            st.one_of(interval_domains(), powerset_domains()),
            min_size=1,
            max_size=6,
        ),
        other=st.one_of(interval_domains(), powerset_domains()),
    )
    def test_mixed_fleets_match_pairwise_reference(self, priors, other):
        """The fleet entry point partitions mixed interval/powerset priors
        and must agree with per-pair ``intersect_knowledge`` everywhere."""
        got = intersect_many(priors, other)
        want = [intersect_knowledge(prior, other) for prior in priors]
        assert got == want


class TestSizeCache:
    def test_prefilled_sizes_match_recomputation(self):
        priors = [
            IntervalDomain(SPEC, Box.make((-8, 12), (0, 15))),
            IntervalDomain(SPEC, Box.make((0, 4), (2, 9))),
        ]
        other = IntervalDomain(SPEC, Box.make((-2, 6), (0, 5)))
        for domain in box_domain.intersect_stacked(priors, other):
            cached = domain.size()
            fresh = 0 if domain.box is None else domain.box.volume()
            assert cached == fresh
