"""Exact permutation statistics on symmetric and alternating groups.

The package computes canonical staircase words, the delent statistic, the
letter-collapsing projection from alternating onto symmetric groups, exact
generating polynomials, block-shuffle machinery, and ships an exhaustive
verifier for a registry of equi-distribution identities.

Importing the package loads none of its modules: each public name is read
from its home module when it is used (PEP 562), so it always is the home
module's current binding.
"""
import importlib

# Home module -> the public names it provides.
_HOMES = {
    "perm": "Perm adjacent_transposition compose format_one_line hat identity inverse "
            "iter_alternating iter_symmetric nu parse_one_line rho sign support",
    "words": "AWord SWord a_canonical a_word_to_perm epsilon_a epsilon_s occurrences_a "
             "occurrences_s s_canonical s_word_to_perm t_vector",
    "stats": "StatProfile del_a del_s del_set_a del_set_s des_a des_s des_set_a des_set_s "
             "genfun hat_ell hat_maj h_map length_a length_s ltr_minima maj_a maj_s rmaj_a "
             "rmaj_s stat_profile",
    "cover": "f_map fiber",
    "qpoly": "MultiPoly q_binomial q_factorial q_multinomial",
    "shuffles": "decompose enumerate_b_shuffles g_map is_b_shuffle shuffle_sum",
    "identities": "IdentityReport list_identities verify",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
