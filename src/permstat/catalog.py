"""The identity catalog: what each registry entry is, without its check code.

An entry names an identity, describes it, gives its parameter schema, its
smallest n and its default cap.  Its ``check`` is a ``_check_*`` function of
``permstat.identities``, looked up by name on every call, so listing the
catalog compiles none of the checks and a patched check is still seen.  The
whole-group entries all share ``_check_scan``, which reads their scan from
``identities._SCANS``.  ``permstat.identities`` re-exports these names and
holds the verifier: ``plan`` calls ``resolve`` on every task before it plans
any, ``run`` builds every report, and ``verify`` is a one-task plan.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import partial


class CapExceeded(ValueError):
    """Requested parameter is beyond the entry's enumeration cap."""


@dataclass(frozen=True)
class IdentityEntry:
    name: str
    description: str
    params: dict[str, str]
    min_n: int
    default_cap: int
    check: Callable[..., Iterator[tuple]]


REGISTRY: dict[str, IdentityEntry] = {}


def _run_check(check: str, *args, **kwargs) -> Iterator[tuple]:
    """Call ``identities.<check>``; the first call imports the check code."""
    from . import identities

    return getattr(identities, check)(*args, **kwargs)


def resolve(name: str, n: int | None, force: bool, extra: dict) -> tuple[int, dict]:
    """Check a request against the catalog: the n it runs at and its parameters.

    Drops the parameters given as None.  Raises ValueError for an unknown
    name or parameter, or an n below the entry's smallest, and CapExceeded
    for an n above its cap unless force is set.
    """
    if name not in REGISTRY:
        raise ValueError(f"unknown identity {name!r}; see list_identities()")
    entry = REGISTRY[name]
    extra = {k: v for k, v in extra.items() if v is not None}
    for key in extra:
        if key not in entry.params:
            raise ValueError(f"{name} does not take parameter {key!r}")
    if n is None:
        n = entry.default_cap
    if n < entry.min_n:
        raise ValueError(f"{name} needs n >= {entry.min_n}")
    if n > entry.default_cap and not force:
        raise CapExceeded(
            f"{name} is capped at n = {entry.default_cap} (requested {n}); use force to override"
        )
    return n, extra


def _register(name, description, check, *bound, min_n=1, cap=7, params=None):
    """Catalog ``identities.<check>``, called with `bound` before n."""
    REGISTRY[name] = IdentityEntry(name, description, params or {"n": "int"}, min_n, cap,
                                   partial(_run_check, check, *bound))


def _scan(name, description, **kwargs):
    """Catalog a whole-group entry, checked by ``identities._check_scan``."""
    _register(name, description, "_check_scan", name, **kwargs)


_scan(
    "macmahon",
    "length and major index are equi-distributed over the symmetric group, "
    "with the Gaussian factorial as closed form",
    cap=8,
)
_scan(
    "fs-fixed-descent",
    "length and major index are equi-distributed on every class with a fixed "
    "inverse descent set",
    cap=7,
)
_scan(
    "fs-rmaj",
    "maj, reverse maj and length agree on every inverse-descent-restricted set",
    cap=7,
)
_scan(
    "thm61-s",
    "joint (length, delent) and (reverse maj, delent) distributions over the "
    "symmetric group equal the staircase product",
    cap=8,
)
_scan(
    "thm61-a",
    "joint (length, delent) and (reverse maj, delent) distributions over the "
    "alternating group equal the doubled staircase product",
    cap=8,
)
_scan(
    "thm62-s",
    "length and reverse maj agree on every fixed-delent slice of the symmetric group",
    cap=8,
)
_scan(
    "thm62-a",
    "length and reverse maj agree on every fixed-delent slice of the alternating group",
    cap=8,
)
_register(
    "prop56",
    "staircase products assembled factor by factor from measured elements "
    "match the closed forms, for both groups",
    "_check_prop56", cap=9,
)
_scan(
    "prop57-stirling-s",
    "delent distribution over the symmetric group matches rising-factorial "
    "coefficients, i.e. cycle-counting Stirling numbers",
    cap=8,
)
_scan(
    "prop57-stirling-a",
    "delent distribution over the alternating group is the doubled Stirling count",
    cap=8,
)
_scan(
    "prop510-multivar-s",
    "per-factor indicator refinement of the symmetric staircase product",
    cap=7,
)
_scan(
    "prop510-multivar-a",
    "per-factor indicator refinement of the alternating staircase product",
    cap=7,
)
_scan(
    "prop511-multivar",
    "indicator-vector counts factor into linear terms at q = 1, both groups",
    cap=8,
)
_scan(
    "prop712-sk-occurrences",
    "occurrence counts of a fixed generator distribute as scaled Stirling numbers",
    cap=8, params={"n": "int", "k": "int, optional"},
)
_register(
    "lemma63",
    "inserting a maximal letter into a word spreads maj and reverse maj geometrically",
    "_check_lemma63", cap=6,
)
_register(
    "lemma64",
    "right staircase cosets spread maj and reverse maj geometrically",
    "_check_lemma64", cap=7,
)
_register(
    "lemma65",
    "right staircase cosets spread (reverse maj, delent) with one marked top term",
    "_check_lemma65", cap=7,
)
_register(
    "remark66",
    "dropping the full staircase tail truncates the coset spread by one term",
    "_check_remark66", cap=7,
)
_scan(
    "prop67",
    "joint (reverse maj, delent) distribution equals the staircase product",
    cap=8,
)
_register(
    "prop81",
    "single-cut shuffles grow length and reverse maj by a Gaussian binomial",
    "_check_prop81", min_n=2, cap=6,
)
_register(
    "lemma86",
    "reverse-maj shuffle sums split by first letter into the two Gaussian parts",
    "_check_first_letter", "rmaj", min_n=2, cap=6,
)
_register(
    "lemma87",
    "length shuffle sums split by first letter into the two Gaussian parts",
    "_check_first_letter", "length", min_n=2, cap=6,
)
_register(
    "lemma93",
    "indicator-refined shuffle sums equal the bracket with one marked variable",
    "_check_lemma93", min_n=2, cap=6,
)
_register(
    "garsia-gessel",
    "shuffles of two fixed-support permutations grow maj by a Gaussian binomial, "
    "after relabelling the upper block",
    "_check_garsia_gessel", min_n=2, cap=6,
)
_scan(
    "main-s",
    "reverse maj and length agree under every double restriction of inverse "
    "descents and inverse minima",
    cap=6,
)
_scan(
    "main-a",
    "the alternating analogue of the double-restriction equality",
    cap=5,
)
_scan(
    "cor92-s",
    "trivariate (reverse maj / inverse descents / inverse delent) equals the "
    "length version",
    cap=7,
)
_scan(
    "cor92-a",
    "the alternating trivariate equality",
    cap=7,
)
_scan(
    "fiber-size",
    "projection fibres have size two to the delent and partition the "
    "alternating group",
    cap=7,
)
_scan(
    "appendix-hat",
    "folded length and maj are equi-distributed over even permutations with a "
    "truncated factorial closed form",
    min_n=2, cap=8, params={"n": "int", "i": "int, optional"},
)
