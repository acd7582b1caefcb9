"""Every scale guard refuses through one policy and names its limit."""

import pytest

from pnfkit import (
    BinaryWord,
    ScaleError,
    bound_check,
    census,
    class_statistics,
    count_ecrit,
    count_pnw,
    count_pnw_density,
    count_prenecklaces,
    enumerate_pn,
    expand_gf,
    ext_bijection_check,
    ext_count,
    is_prefix_normal,
    max_ones_profile,
    max_zeros_profile,
    min_ones_profile,
    parikh_set,
    parikh_set_equal,
    pnf_pair,
    prefix_equivalent,
    ratio_series,
)
from pnfkit.cli import main
from pnfkit.bitword import PROFILE_LENGTH_GUARD
from pnfkit.combinatorics import (
    CLASS_LISTING_GUARD,
    CLASS_SCAN_GUARD,
    COMPLETION_GUARD,
    ENUM_LENGTH_GUARD,
    GF_ORDER_GUARD,
)
from pnfkit.errors import check_scale
from pnfkit.lyndon import PRENECKLACE_COUNT_GUARD
from pnfkit.pnf import PARIKH_SET_LENGTH_GUARD


def ones(n):
    return BinaryWord((1 << n) - 1, n)


# name: (call at size s with keyword arguments, its limit, whether the
# lifted call is run: it takes unsafe_large and is cheap enough). Profiles
# of 0^n and 1^n, and walks whose density window admits only 1^n, cost O(n).
GUARDS = {
    "max_ones_profile": (lambda s, **kw: max_ones_profile(BinaryWord(0, s), **kw), PROFILE_LENGTH_GUARD, True),
    "max_zeros_profile": (lambda s, **kw: max_zeros_profile(BinaryWord(0, s), **kw), PROFILE_LENGTH_GUARD, True),
    "min_ones_profile": (lambda s, **kw: min_ones_profile(BinaryWord(0, s), **kw), PROFILE_LENGTH_GUARD, True),
    "pnf_pair": (lambda s, **kw: pnf_pair(ones(s), **kw), PROFILE_LENGTH_GUARD, True),
    "is_prefix_normal": (lambda s, **kw: is_prefix_normal(ones(s), **kw), PROFILE_LENGTH_GUARD, True),
    "prefix_equivalent": (lambda s, **kw: prefix_equivalent(ones(s), ones(s), **kw), PROFILE_LENGTH_GUARD, True),
    "parikh_set_equal": (lambda s, **kw: parikh_set_equal(ones(s), ones(s), **kw), PROFILE_LENGTH_GUARD, True),
    "census": (census, ENUM_LENGTH_GUARD, False),
    "enumerate_pn": (lambda s, **kw: next(enumerate_pn(s, **kw)), ENUM_LENGTH_GUARD, True),
    "count_pnw_density": (lambda s, **kw: count_pnw_density(s, s, **kw), ENUM_LENGTH_GUARD, True),
    "ext_count": (lambda s, **kw: ext_count(ones(s - 1), 1, **kw), ENUM_LENGTH_GUARD, True),
    "ext_bijection_check": (lambda s, **kw: ext_bijection_check(s, 1, **kw), ENUM_LENGTH_GUARD, True),
    "class_scan": (class_statistics, CLASS_SCAN_GUARD, False),
    "class_listing": (
        lambda s, **kw: class_statistics(s, include_listing=True, **kw),
        CLASS_LISTING_GUARD,
        True,
    ),
    "parikh_set": (lambda s, **kw: parikh_set(ones(s), **kw), PARIKH_SET_LENGTH_GUARD, True),
    "count_prenecklaces": (count_prenecklaces, PRENECKLACE_COUNT_GUARD, True),
    "expand_gf": (lambda s: expand_gf(2, s), GF_ORDER_GUARD, False),
    # 1^(s+1) extended by s symbols completes all s below its own length.
    "completion": (lambda s: ext_count(ones(s + 1), s, unsafe_large=True), COMPLETION_GUARD, False),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guard_names_its_limit(name):
    call, limit, cheap = GUARDS[name]
    with pytest.raises(ScaleError) as exc:
        call(limit + 1)
    err = exc.value
    assert err.size == limit + 1 and err.limit == limit
    assert err.what and err.what in str(err) and "refused" in str(err)
    if cheap:
        call(limit + 1, unsafe_large=True)


def test_gf_order_guard_has_no_override():
    with pytest.raises(TypeError):
        expand_gf(2, GF_ORDER_GUARD + 1, unsafe_large=True)


def test_check_scale():
    check_scale("length", 5, 5, False)
    check_scale("length", 6, 5, True)
    with pytest.raises(ScaleError) as exc:
        check_scale("length", 6, 5, False)
    assert (exc.value.what, exc.value.size, exc.value.limit) == ("length", 6, 5)
    assert str(exc.value) == "length 6 refused: the limit is 5"


# Entry points taking a length (or a series order, or an extension
# length): each refuses -1 with a plain ValueError, never a ScaleError.
LENGTH_TAKING = {
    "census": census,
    "count_pnw": count_pnw,
    "count_ecrit": count_ecrit,
    "enumerate_pn": lambda s: next(enumerate_pn(s)),
    "count_pnw_density": lambda s: count_pnw_density(s, 0),
    "class_scan": class_statistics,
    "class_listing": lambda s: class_statistics(s, include_listing=True),
    "count_prenecklaces": count_prenecklaces,
    "expand_gf": lambda s: expand_gf(2, s),
    "ext_count": lambda s: ext_count(BinaryWord(1, 1), s),
    "bound_check": bound_check,
    "ratio_series": ratio_series,
}


@pytest.mark.parametrize("name", LENGTH_TAKING)
def test_negative_length_is_a_plain_value_error(name):
    with pytest.raises(ValueError) as exc:
        LENGTH_TAKING[name](-1)
    assert type(exc.value) is ValueError


def test_check_scale_refuses_negative_size_first():
    for unsafe_large in (False, True):
        with pytest.raises(ValueError) as exc:
            check_scale("length", -1, 5, unsafe_large)
        assert type(exc.value) is ValueError
        assert str(exc.value) == "length must be non-negative, got -1"


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize(
    "argv", [["enum", "-1"], ["enum", "-1", "--classes"], ["prenecklaces", "-1"], ["gf", "2", "-1"]]
)
def test_cli_negative_length_exits_2(capsys, fmt, argv):
    assert main(["--format", fmt, *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
