"""Cross-validation against an independent computer-algebra implementation.

These tests only run when sympy is importable; they compare preset matrices,
group orders and real-root counts against sympy.liealgebras, which shares none
of this package's code paths.
"""

import pytest

sympy = pytest.importorskip("sympy")

from sympy.liealgebras.cartan_type import CartanType  # noqa: E402
from sympy.liealgebras.root_system import RootSystem  # noqa: E402
from sympy.liealgebras.weyl_group import WeylGroup  # noqa: E402

from schur_scope import weyl  # noqa: E402
from schur_scope.cartan import preset  # noqa: E402

# Same vertex labeling in both implementations for these families.
MATCHING_LABELS = ["A2", "B2", "G2", "A3", "B3", "A4", "D4", "F4"]
# The E-family labelings differ, so only labeling-independent data is compared.
ALL_LABELS = MATCHING_LABELS + ["E6", "E7", "E8"]


def test_preset_matrices_match_reference():
    for label in MATCHING_LABELS:
        reference = tuple(
            tuple(int(x) for x in row)
            for row in CartanType(label).cartan_matrix().tolist()
        )
        assert preset(label).entries == reference, label


def test_group_orders_match_reference():
    for label in MATCHING_LABELS:
        expected = int(WeylGroup(label).group_order())
        assert len(weyl.enumerate_group(preset(label))) == expected, label


def test_orbit_stabilizer_group_order_matches_reference():
    for label in ALL_LABELS:
        expected = int(WeylGroup(label).group_order())
        assert weyl.group_order(preset(label)) == expected, label


def test_real_root_counts_match_reference():
    for label in ALL_LABELS:
        expected = len(RootSystem(label).all_roots())
        assert len(weyl.enumerate_real_roots(preset(label), 1)) == expected, label


def test_rank_times_coxeter_number_matches_reference_root_count():
    for label in ALL_LABELS:
        C = preset(label)
        assert C.n * weyl.coxeter_number(C) == len(RootSystem(label).all_roots()), label
