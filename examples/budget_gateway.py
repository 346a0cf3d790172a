#!/usr/bin/env python3
"""Budget exhaustion at the gateway: composition is the real leak.

Every query below passes the per-query session policy with room to spare.
What corners a secret is the *composition* of answers — and that is what
the serving runtime's privacy-budget ledger accounts for.  One user keeps
asking location queries; each answered query folds into their cumulative
knowledge bound (via the domain lattice); when the next answer would push
the bound below the policy floor, the ledger refuses — before the query
ever runs on the secret, and without touching the bound.

Reconnecting does not help: the budget is keyed by user, not session, so
the classic laundering move — close the session, open a fresh one, ask
again — hits the same refusal.

Run:  python examples/budget_gateway.py
"""

import asyncio

from repro import DeclassificationServer, SecretSpec, ServerConfig, size_above
from repro.core.plugin import CompileOptions
from repro.service.api import CompileRequest

SPEC = SecretSpec.declare("UserLoc", x=(0, 399), y=(0, 399))

#: Each one individually is harmless under the session policy (> 100).
QUERIES = [
    ("west_half", "x <= 199"),
    ("south_half", "y <= 199"),
    ("west_quarter", "x <= 99"),
    ("south_quarter", "y <= 99"),
    ("west_eighth", "x <= 49"),
]


async def run() -> None:
    server = DeclassificationServer(
        size_above(100),  # the per-query session policy
        budget_floor=size_above(15_000),  # the cumulative, per-user floor
        options=CompileOptions(domain="interval", modes=("under", "over")),
        config=ServerConfig(inline_compiles=True),
    )

    print(f"{'query':<14} {'cache':>6}")
    for name, text in QUERIES:
        receipt = await server.register_query(CompileRequest(name, text, SPEC))
        print(f"{name:<14} {'HIT' if receipt.cache_hit else 'MISS':>6}")

    # Alice's secret location; all the threshold queries answer True.
    server.open_session("conn-1", (SPEC, (43, 87)), user_id="alice")

    print(f"\nbudget floor: knowledge must keep > 15,000 of "
          f"{SPEC.space_size():,} locations")
    print(f"{'query':<14} {'authorized':>10} {'response':>9} {'budget left':>12}")
    refused_at = None
    for name, _ in QUERIES:
        result = await server.downgrade("conn-1", name)
        remaining = server.ledger.remaining("alice", SPEC)
        print(
            f"{name:<14} {str(result.authorized):>10} "
            f"{str(result.response):>9} {remaining:>12,}"
        )
        if not result.authorized and refused_at is None:
            refused_at = name
            assert "budget exhausted" in result.reason

    assert refused_at == "south_quarter", refused_at
    assert server.ledger.remaining("alice", SPEC) == 20_000

    # Reconnecting cannot launder the budget: new session, same user.
    server.close_session("conn-1")
    server.open_session("conn-2", (SPEC, (43, 87)), user_id="alice")
    retry = await server.downgrade("conn-2", "south_quarter")
    print(f"\nalice reconnects and retries: authorized={retry.authorized} "
          f"({retry.reason})")
    assert not retry.authorized

    # A different user starts with a full budget.
    server.open_session("conn-3", (SPEC, (250, 300)), user_id="bob")
    fresh = await server.downgrade("conn-3", "south_quarter")
    print(f"bob asks the same query:      authorized={fresh.authorized} "
          f"(budget left {server.ledger.remaining('bob', SPEC):,})")
    assert fresh.authorized

    refusals = server.ledger.account("alice").refusals
    print(f"\nledger: alice charged {server.ledger.account('alice').charged} "
          f"queries, refused {refusals}; refusals never touched her bound")
    server.shutdown()


def main() -> None:
    asyncio.run(run())


if __name__ == "__main__":
    main()
