"""Moment identities that hold for every n: each compares two class moments
as rational functions of n and the m_i, so each certifies the engine on
every class, beyond the n <= 8 that `verify` reaches.

Inversion keeps the cycle type and maps excedances to anti-excedances
(pi(i) < i), so exc and aexc are equidistributed on each class.  On each
class, (maj - exc, exc) and (maj - exc, aexc) are equidistributed as well
(Shareshian and Wachs, Eulerian quasisymmetric functions, Adv. Math. 2010).
"""

import pytest

from cycstat.cli import main
from cycstat.dsl import parse_statistic
from cycstat.expectation import RationalExpectation
from cycstat.poly import N

AEXC = "T(U=(2);V=(1);C={};f=1)"


def same_moment(a: str, b: str, d: int = 1) -> bool:
    difference = parse_statistic(a).moment(d) - parse_statistic(b).moment(d)
    return difference.num.is_zero


def test_a_false_identity_fails():
    # exc and des are equidistributed on S_n, not on each class
    assert not same_moment("exc", "des")


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_inverse_maps_exc_to_aexc(d):
    assert same_moment("exc", AEXC, d)


def test_fix_exc_and_aexc_add_up_to_n():
    mean = parse_statistic(f"fix + exc + {AEXC}").moment(1)
    assert (mean - RationalExpectation(N)).num.is_zero


def test_square_of_a_statistic_is_its_second_moment():
    assert parse_statistic("exc^2").moment(1) == parse_statistic("exc").moment(2)


@pytest.mark.parametrize("b", [1, 2])
@pytest.mark.parametrize("form", ["(maj - exc)*{}", "{}*(maj - exc)"],
                         ids=["maj-left", "maj-right"])
def test_shareshian_wachs(form, b):
    # maj's translates carry adjacency constraints, so each order of the
    # factors checks the constraints of one side of a product
    assert same_moment(form.format(f"exc^{b}"), form.format(f"{AEXC}^{b}"))


@pytest.mark.parametrize("expr, d", [("(maj-exc)*exc", 1), ("exc*des", 1)])
def test_products_agree_with_brute_force(capsys, expr, d):
    assert main(["verify", expr, "--nmax", "6", "-d", str(d)]) == 0
    assert "FAIL" not in capsys.readouterr().out
