"""Exact permutation statistics on symmetric and alternating groups.

The package computes canonical staircase words, the delent statistic, the
letter-collapsing projection from alternating onto symmetric groups, exact
generating polynomials, block-shuffle machinery, and ships an exhaustive
verifier for a registry of equi-distribution identities.
"""
from .perm import (
    Perm,
    adjacent_transposition,
    compose,
    format_one_line,
    hat,
    identity,
    inverse,
    iter_alternating,
    iter_symmetric,
    nu,
    parse_one_line,
    rho,
    sign,
    support,
)
from .words import (
    AWord,
    SWord,
    a_canonical,
    a_word_to_perm,
    epsilon_a,
    epsilon_s,
    occurrences_a,
    occurrences_s,
    s_canonical,
    s_word_to_perm,
    t_vector,
)
from .stats import (
    StatProfile,
    del_a,
    del_s,
    del_set_a,
    del_set_s,
    des_a,
    des_s,
    des_set_a,
    des_set_s,
    genfun,
    hat_ell,
    hat_maj,
    h_map,
    length_a,
    length_s,
    ltr_minima,
    maj_a,
    maj_s,
    rmaj_a,
    rmaj_s,
    stat_profile,
)
from .cover import f_map, fiber
from .qpoly import MultiPoly, q_binomial, q_factorial, q_multinomial
from .shuffles import decompose, enumerate_b_shuffles, g_map, is_b_shuffle, shuffle_sum
from .identities import IdentityReport, list_identities, verify

__version__ = "0.1.0"
