"""``QInfo``: a query packaged with its verified posterior functions.

This is the run-time artifact the compile step produces for each
declassification query (paper Figure 2): the executable query plus
``approx`` functions that map any prior knowledge to the pair of
posteriors ``(postT, postF)`` by intersecting with the synthesized ind.
sets — which is why posterior computation is *free* at run time (no static
analysis, no SMT): just box intersections.

Note on Figure 4 of the paper: its ``underapprox`` body intersects the
prior with ``over_indset``; that contradicts both section 2.2 ("we
intersect with the under-approximate ind. set to produce an
under-approximation of the posterior") and the stated refinement type, so
we take it as an erratum and intersect with the matching ind. set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from repro.lang.ast import BoolExpr
from repro.lang.secrets import SecretSpec, SecretValue
from repro.solver import vectoreval
from repro.solver.kernels import KernelSpace, concrete_predicate
from repro.domains import box as box_domain
from repro.domains import powerset as powerset_domain
from repro.domains.base import AbstractDomain
from repro.domains.box import IntervalDomain
from repro.domains.powerset import PowersetDomain

__all__ = ["QInfo", "DomainPair", "intersect_knowledge", "intersect_many"]

DomainPair = tuple[AbstractDomain, AbstractDomain]

#: Below this many *distinct* priors the stacked tensor path costs more
#: than it saves; scalar intersections run instead.
_TENSOR_MIN_DISTINCT = 2


def intersect_knowledge(a: AbstractDomain, b: AbstractDomain) -> AbstractDomain:
    """Intersection that lifts to the powerset domain on mixed operands."""
    if isinstance(a, IntervalDomain) and isinstance(b, IntervalDomain):
        return a.intersect(b)
    pa = a if isinstance(a, PowersetDomain) else PowersetDomain.from_interval(a)
    pb = b if isinstance(b, PowersetDomain) else PowersetDomain.from_interval(b)
    return pa.intersect(pb)


def intersect_many(
    priors: Sequence[AbstractDomain], ind: AbstractDomain
) -> list[AbstractDomain]:
    """``[intersect_knowledge(p, ind) for p in priors]``, vectorized.

    One broadcasted clamp over the whole stack when NumPy is available
    and the operands are homogeneous enough; bit-identical results (same
    domain objects by equality, same lifting rules) either way.  Callers
    pass *distinct* priors — the dedup lives in :meth:`QInfo.approx_batch`.
    """
    if vectoreval.AVAILABLE and len(priors) >= _TENSOR_MIN_DISTINCT:
        if isinstance(ind, PowersetDomain):
            lifted = [
                p if isinstance(p, PowersetDomain) else PowersetDomain.from_interval(p)
                for p in priors
            ]
            return powerset_domain.intersect_stacked(lifted, ind)
        if isinstance(ind, IntervalDomain):
            interval_rows = [
                i for i, p in enumerate(priors) if isinstance(p, IntervalDomain)
            ]
            if len(interval_rows) == len(priors):
                return box_domain.intersect_stacked(priors, ind)
            # Mixed fleet: interval priors clamp against the interval ind.
            # set, powerset priors lift it — exactly intersect_knowledge's
            # per-pair dispatch, just grouped.
            results: list[AbstractDomain | None] = [None] * len(priors)
            if len(interval_rows) >= _TENSOR_MIN_DISTINCT:
                stacked = box_domain.intersect_stacked(
                    [priors[i] for i in interval_rows], ind
                )
                for i, domain in zip(interval_rows, stacked):
                    results[i] = domain
            for i, prior in enumerate(priors):
                if results[i] is None:
                    results[i] = intersect_knowledge(prior, ind)
            return results
    return [intersect_knowledge(prior, ind) for prior in priors]


@dataclass(frozen=True)
class QInfo:
    """Query information: the query and its knowledge approximations.

    ``under_indset``/``over_indset`` are the verified (True-side,
    False-side) ind.-set pairs.  ``over_indset`` may be ``None`` when the
    compile step was asked for under-approximations only (the mode the
    paper's policy enforcement uses).
    """

    name: str
    query: BoolExpr
    secret: SecretSpec
    under_indset: DomainPair | None
    over_indset: DomainPair | None

    def run(self, secret_value: SecretValue | Mapping[str, int]) -> bool:
        """Execute the query on a concrete secret.

        Runs on the compiled concrete kernel, pinned on this instance so
        a service answering thousands of ``downgrade`` requests pays the
        lowering (and even the structural cache lookup, which hashes the
        query AST) once, not per request.
        """
        predicate = self.__dict__.get("_predicate")
        if predicate is None:
            predicate = concrete_predicate(self.query, self.secret.field_names)
            object.__setattr__(self, "_predicate", predicate)
        return predicate(self.secret.to_env(secret_value))

    def underapprox(self, prior: AbstractDomain) -> DomainPair:
        """Posterior under-approximations ``(postT, postF)`` for a prior."""
        return self.approx(prior, mode="under")

    def overapprox(self, prior: AbstractDomain) -> DomainPair:
        """Posterior over-approximations ``(postT, postF)`` for a prior."""
        return self.approx(prior, mode="over")

    def approx(self, prior: AbstractDomain, *, mode: str = "under") -> DomainPair:
        """The Figure 2 ``approx`` field: posterior pair for a prior."""
        true_ind, false_ind = self.indset_pair(mode=mode)
        return (
            intersect_knowledge(prior, true_ind),
            intersect_knowledge(prior, false_ind),
        )

    def indset_pair(self, *, mode: str = "under") -> DomainPair:
        """The shared, immutable (True-side, False-side) ind.-set pair.

        This is the compile-time artifact every session's posterior is an
        intersection with — batch serving fetches it once per query and
        reuses it across thousands of priors.
        """
        if mode not in ("under", "over"):
            raise ValueError(f"mode must be 'under' or 'over', got {mode!r}")
        pair = self.under_indset if mode == "under" else self.over_indset
        if pair is None:
            raise ValueError(f"query {self.name!r} compiled without {mode!r} mode")
        return pair

    def approx_batch(
        self,
        priors: Iterable[AbstractDomain],
        *,
        mode: str = "under",
        known: Mapping[AbstractDomain, DomainPair] | None = None,
    ) -> list[DomainPair]:
        """Posterior pairs for many priors against one shared ind.-set pair.

        Domains are immutable and hashable, so identical priors (the common
        case for fleets of fresh sessions, which all start at ⊤) are
        intersected once and the resulting pair is shared.  ``known`` maps
        priors to pairs already computed for this query and ``mode``
        (a pair is a pure function of the prior and the ind. sets); those
        priors are looked up, not intersected again.
        """
        true_ind, false_ind = self.indset_pair(mode=mode)
        pairs: dict[AbstractDomain, DomainPair] = {}
        fresh: list[AbstractDomain] = []
        priors = list(priors)
        for prior in priors:
            if prior not in pairs:
                pair = None if known is None else known.get(prior)
                pairs[prior] = pair
                if pair is None:
                    fresh.append(prior)
        if fresh:
            pairs.update(
                zip(
                    fresh,
                    zip(intersect_many(fresh, true_ind), intersect_many(fresh, false_ind)),
                )
            )
        return [pairs[prior] for prior in priors]

    def run_batch(self, secret_rows) -> "object":
        """Vectorized :meth:`run`: int64 rows ``[n, arity]`` → bool ``[n]``.

        Rows must be validated secret tuples in field order (the SoA
        session store guarantees this).  Evaluates the same compiled
        grid kernel the solver's vectorized finishing uses, pinned on
        this instance like ``run``'s concrete kernel; per-row results
        are bit-identical to ``run`` (the grid/concrete kernel agreement
        is property-tested).
        """
        np = vectoreval.require_numpy()
        kernel = self.__dict__.get("_grid_kernel")
        if kernel is None:
            space = KernelSpace(self.secret.field_names)
            kernel = space.grid_bool(self.query)
            # The space owns the interned kernels the id-keyed grid cache
            # points at; keep it alive alongside the closure.
            object.__setattr__(self, "_grid_space", space)
            object.__setattr__(self, "_grid_kernel", kernel)
        grids = tuple(secret_rows[:, dim] for dim in range(self.secret.arity))
        mask = kernel(grids)
        if mask is True or mask is False:
            return np.full(len(secret_rows), mask, dtype=bool)
        return np.broadcast_to(np.asarray(mask, dtype=bool), (len(secret_rows),))

    def as_function(self, *, mode: str = "under") -> Callable[[AbstractDomain], DomainPair]:
        """The posterior computation as a standalone closure."""

        def approx(prior: AbstractDomain) -> DomainPair:
            return self.approx(prior, mode=mode)

        return approx
