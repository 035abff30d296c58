"""The identity catalog: what each registry entry is, without its check code.

An entry names an identity, describes it, gives its parameter schema, its
smallest n and its default cap.  Its ``check`` is a ``_check_*`` function of
``permstat.identities``, looked up by name on every call, so listing the
catalog compiles none of the checks and a patched check is still seen.
``permstat.identities`` re-exports these names and holds the verifier.
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


def _register(name, description, check, *bound, min_n=1, cap=7, params=None):
    """Catalog ``identities.<check>``, called with `bound` before n."""
    REGISTRY[name] = IdentityEntry(name, description, params or {"n": "int"}, min_n, cap,
                                   partial(_run_check, check, *bound))


_register(
    "macmahon",
    "length and major index are equi-distributed over the symmetric group, "
    "with the Gaussian factorial as closed form",
    "_check_macmahon", cap=8,
)
_register(
    "fs-fixed-descent",
    "length and major index are equi-distributed on every class with a fixed "
    "inverse descent set",
    "_check_fs_fixed_descent", cap=7,
)
_register(
    "fs-rmaj",
    "maj, reverse maj and length agree on every inverse-descent-restricted set",
    "_check_fs_rmaj", cap=7,
)
_register(
    "thm61-s",
    "joint (length, delent) and (reverse maj, delent) distributions over the "
    "symmetric group equal the staircase product",
    "_check_thm61", "S", cap=8,
)
_register(
    "thm61-a",
    "joint (length, delent) and (reverse maj, delent) distributions over the "
    "alternating group equal the doubled staircase product",
    "_check_thm61", "A", cap=8,
)
_register(
    "thm62-s",
    "length and reverse maj agree on every fixed-delent slice of the symmetric group",
    "_check_thm62", "S", cap=8,
)
_register(
    "thm62-a",
    "length and reverse maj agree on every fixed-delent slice of the alternating group",
    "_check_thm62", "A", cap=8,
)
_register(
    "prop56",
    "staircase products assembled factor by factor from measured elements "
    "match the closed forms, for both groups",
    "_check_prop56", cap=9,
)
_register(
    "prop57-stirling-s",
    "delent distribution over the symmetric group matches rising-factorial "
    "coefficients, i.e. cycle-counting Stirling numbers",
    "_check_prop57", "S", cap=8,
)
_register(
    "prop57-stirling-a",
    "delent distribution over the alternating group is the doubled Stirling count",
    "_check_prop57", "A", cap=8,
)
_register(
    "prop510-multivar-s",
    "per-factor indicator refinement of the symmetric staircase product",
    "_check_prop510", "S", cap=7,
)
_register(
    "prop510-multivar-a",
    "per-factor indicator refinement of the alternating staircase product",
    "_check_prop510", "A", cap=7,
)
_register(
    "prop511-multivar",
    "indicator-vector counts factor into linear terms at q = 1, both groups",
    "_check_prop511", cap=8,
)
_register(
    "prop712-sk-occurrences",
    "occurrence counts of a fixed generator distribute as scaled Stirling numbers",
    "_check_prop712", cap=8, params={"n": "int", "k": "int, optional"},
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
_register(
    "prop67",
    "joint (reverse maj, delent) distribution equals the staircase product",
    "_check_prop67", cap=8,
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
_register(
    "main-s",
    "reverse maj and length agree under every double restriction of inverse "
    "descents and inverse minima",
    "_check_main", "S", cap=6,
)
_register(
    "main-a",
    "the alternating analogue of the double-restriction equality",
    "_check_main", "A", cap=5,
)
_register(
    "cor92-s",
    "trivariate (reverse maj / inverse descents / inverse delent) equals the "
    "length version",
    "_check_cor92_s", cap=7,
)
_register(
    "cor92-a",
    "the alternating trivariate equality",
    "_check_cor92_a", cap=7,
)
_register(
    "fiber-size",
    "projection fibres have size two to the delent and partition the "
    "alternating group",
    "_check_fiber_size", cap=7,
)
_register(
    "appendix-hat",
    "folded length and maj are equi-distributed over even permutations with a "
    "truncated factorial closed form",
    "_check_appendix_hat", min_n=2, cap=8, params={"n": "int", "i": "int, optional"},
)
