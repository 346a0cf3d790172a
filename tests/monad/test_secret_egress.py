"""The egress list of raw secrets: every use of ``unprotect_tcb`` in ``src/``.

``ProtectedSecret.unprotect_tcb`` is the TCB's only way back from a
labeled secret to its raw value (the paper's ``Unprotectable``).  Each
place that calls it is a place where a secret can leave the protected
world, so the list is pinned here: a new use fails this test until it
is added to ``EGRESS`` on purpose, with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: ``(module, enclosing function)`` → number of uses, with the reason.
EGRESS = {
    # The decision core runs the query on the raw secret after the
    # policy check over both branches (ANOSY's ``downgrade``).
    ("monad/anosy.py", "evaluate_downgrade"): 2,
    # The monad's knowledge map is keyed by the secret's identity.
    ("monad/anosy.py", "AnosyT._key"): 1,
    # The SoA fleet store holds secrets as int64 rows.
    ("service/session.py", "SessionManager._serve_eligible_vectorized"): 1,
    # The journaled open-session payload (also a serving shard's open op).
    ("server/gateway.py", "_open_session_payload"): 1,
}


def _uses(path: Path) -> list[str]:
    """Qualified names of the functions in *path* that touch ``unprotect_tcb``.

    Any attribute access counts, called or not, so binding the method
    to a name first does not hide a use.
    """
    found: list[str] = []

    def walk(node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + [child.name])
                continue
            if isinstance(child, ast.Attribute) and child.attr == "unprotect_tcb":
                found.append(".".join(scope))
            walk(child, scope)

    walk(ast.parse(path.read_text(encoding="utf-8")), [])
    return found


def test_unprotect_tcb_has_exactly_the_listed_callers():
    uses = Counter(
        (path.relative_to(SRC).as_posix(), scope)
        for path in sorted(SRC.rglob("*.py"))
        for scope in _uses(path)
    )
    assert dict(uses) == EGRESS


def test_no_module_names_unprotect_tcb_in_a_string():
    # ``getattr(secret, "unprotect_tcb")`` would dodge the walk above.
    named = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value == "unprotect_tcb"
    ]
    assert named == []
