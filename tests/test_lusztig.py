import pytest

from weylunip.classposet import EllipticClassLabel, elliptic_classes, elliptic_label
from weylunip.lusztig import (
    group_spec,
    phi,
    verify_combinations,
    verify_theorem,
    weyl_context,
)
from weylunip.partitions import family_members
from weylunip.unipotent import GROUP_FAMILY, format_unipotent
from weylunip import weylgroup as wg

from oracle import phi_good_char_equals_theta2_of_phi_char2


def _rows(group, n, char, component="id"):
    spec = group_spec(group, n, char)
    ctx = weyl_context(spec, component)
    return {
        c.partition: format_unipotent(phi(spec, c)) for c in elliptic_classes(ctx)
    }


def test_phi_symplectic_rank_two():
    assert _rows("Sp", 2, "good") == {(2,): "[4]", (1, 1): "[2,2]"}
    assert _rows("Sp", 2, "2") == {(2,): "([4],*)", (1, 1): "([2,2],ε(2)=1)"}


def test_phi_odd_orthogonal_rank_two():
    assert _rows("O_odd", 2, "good") == {(2,): "[5]", (1, 1): "[3,1,1]"}
    assert _rows("O_odd", 2, "2") == {(2,): "([4,1],*)", (1, 1): "([2,2,1],ε(2)=1)"}


def test_phi_even_orthogonal_identity_component():
    assert _rows("O_even", 2, "good") == {(1, 1): "[3,1]"}
    assert _rows("O_even", 3, "good") == {(2, 1): "[5,1]"}
    assert _rows("O_even", 4, "good") == {
        (3, 1): "[7,1]",
        (2, 2): "[5,3]",
        (1, 1, 1, 1): "[3,2,2,1]",
    }
    assert _rows("O_even", 4, "2") == {
        (3, 1): "([6,2],*)",
        (2, 2): "([4,4],ε(4)=1)",
        (1, 1, 1, 1): "([2,2,2,2],ε(2)=1)",
    }
    assert _rows("O_even", 6, "good") == {
        (5, 1): "[11,1]",
        (4, 2): "[9,3]",
        (3, 3): "[7,5]",
        (3, 1, 1, 1): "[7,2,2,1]",
        (2, 2, 1, 1): "[5,3,3,1]",
        (1, 1, 1, 1, 1, 1): "[3,2,2,2,2,1]",
    }
    assert _rows("O_even", 6, "2") == {
        (5, 1): "([10,2],*)",
        (4, 2): "([8,4],*)",
        (3, 3): "([6,6],ε(6)=1)",
        (3, 1, 1, 1): "([6,2,2,2],*)",
        (2, 2, 1, 1): "([4,4,2,2],ε(4)=ε(2)=1)",
        (1, 1, 1, 1, 1, 1): "([2,2,2,2,2,2],ε(2)=1)",
    }


def test_phi_even_orthogonal_twisted_component():
    assert _rows("O_even", 3, "2", "twisted") == {
        (3,): "([6],*)",
        (1, 1, 1): "([2,2,2],*)",
    }
    assert _rows("O_even", 4, "2", "twisted") == {
        (4,): "([8],*)",
        (2, 1, 1): "([4,2,2],ε(2)=1)",
    }


def test_phi_image_components():
    # identity-component classes land inside SO, twisted ones outside
    for n in (2, 3, 4, 5):
        spec = group_spec("O_even", n, "2")
        for comp, want in [("id", "SO"), ("twisted", "O\\SO")]:
            ctx = weyl_context(spec, comp)
            for c in elliptic_classes(ctx):
                assert phi(spec, c).so_component == want


def test_phi_linear_groups():
    spec = group_spec("GL", 4, "good")
    ctx = weyl_context(spec)
    (c,) = elliptic_classes(ctx)
    assert phi(spec, c).partition == (4,)
    assert phi(group_spec("GL", 4, "2"), c).partition == (4,)
    # only the free rows get an explicit epsilon in the display: 1 is
    # free in (3,1,1) (odd row, even multiplicity) but not in (1^5)
    assert _rows("GLd", 5, "2", "twisted") == {
        (5,): "([5],*)",
        (3, 1, 1): "([3,1,1],ε(1)=1)",
        (1, 1, 1, 1, 1): "([1,1,1,1,1],*)",
    }


def test_phi_rejects():
    spec = group_spec("GLd", 3, "2")
    ctx = weyl_context(spec)
    c = elliptic_label(ctx, (3,))
    with pytest.raises(ValueError):
        phi(group_spec("GLd", 3, "good"), c)
    tw = elliptic_label(wg.context("D", 3, "twisted"), (3,))
    with pytest.raises(ValueError):
        phi(group_spec("O_even", 3, "good"), tw)
    # class from the wrong Weyl side
    bc = elliptic_label(wg.context("BC", 3), (3,))
    with pytest.raises(ValueError):
        phi(group_spec("O_even", 3, "2"), bc)
    with pytest.raises(ValueError):
        phi(group_spec("Sp", 4, "good"), bc)  # right family, wrong rank


def test_phi_refuses_a_label_that_names_no_elliptic_class():
    # built by hand, past elliptic_label: (3,) has one part, so it names
    # a class of D(3)'s twisted component, not of the identity one
    c = EllipticClassLabel(wg.context("D", 3), (3,))
    with pytest.raises(ValueError, match="not an elliptic class"):
        phi(group_spec("O_even", 3, "2"), c)


def test_phi_injective_per_context():
    cases = []
    for group in ("Sp", "O_odd"):
        for n in range(1, 7):
            for char in ("good", "2"):
                cases.append((group, n, char, "id"))
    for n in range(2, 7):
        cases.append(("O_even", n, "good", "id"))
        cases.append(("O_even", n, "2", "id"))
        cases.append(("O_even", n, "2", "twisted"))
        cases.append(("GLd", n, "2", "twisted"))
    for group, n, char, comp in cases:
        spec = group_spec(group, n, char)
        ctx = weyl_context(spec, comp)
        images = [phi(spec, c) for c in elliptic_classes(ctx)]
        assert len(set(images)) == len(images), (group, n, char, comp)


def test_phi_image_avoids_split_classes():
    # the image consists of classes without I/II decoration
    for n in range(2, 8):
        for char in ("good", "2"):
            spec = group_spec("O_even", n, char)
            comps = ["id"] if char == "good" else ["id", "twisted"]
            for comp in comps:
                ctx = weyl_context(spec, comp)
                for c in elliptic_classes(ctx):
                    assert phi(spec, c).split is None


def test_transfer_square_commutes():
    for group in ("Sp", "O_odd"):
        for n in range(1, 6):
            for alpha in family_members(n):
                assert phi_good_char_equals_theta2_of_phi_char2(group, n, alpha)
    for n in range(2, 6):
        for alpha in wg.elliptic_partitions(wg.context("D", n)):
            assert phi_good_char_equals_theta2_of_phi_char2("O_even", n, alpha)


def test_verify_theorem_reports():
    rep = verify_theorem("Sp", 3, "good")
    assert rep["failures"] == []
    assert rep["pairs"] == 9  # three elliptic classes
    assert rep["family"] == "BC" and rep["group"] == "Sp"
    assert "component" not in rep
    rep = verify_theorem("O_even", 4, "2", component="twisted")
    assert rep["failures"] == []
    assert rep["pairs"] == 4
    assert rep["component"] == "twisted"


@pytest.mark.parametrize(
    "group,n,char,component",
    [
        ("GL", 4, "good", "id"),
        ("GL", 4, "2", "id"),
        ("Sp", 4, "good", "id"),
        ("Sp", 4, "2", "id"),
        ("O_odd", 4, "good", "id"),
        ("O_odd", 4, "2", "id"),
        ("O_even", 4, "good", "id"),
        ("O_even", 4, "2", "id"),
        ("O_even", 4, "2", "twisted"),
        ("GLd", 5, "2", "twisted"),
    ],
)
def test_verify_theorem_small_ranks(group, n, char, component):
    rep = verify_theorem(group, n, char, component=component)
    assert rep["failures"] == []
    assert rep["pairs"] >= 1


def test_verify_combinations():
    assert verify_combinations("BC") == [
        ("Sp", "good", "id"),
        ("Sp", "2", "id"),
        ("O_odd", "good", "id"),
        ("O_odd", "2", "id"),
    ]
    assert verify_combinations("D") == [
        ("O_even", "good", "id"),
        ("O_even", "2", "id"),
        ("O_even", "2", "twisted"),
    ]
    assert verify_combinations("2A") == [("GLd", "2", "twisted")]
    assert verify_combinations("A") == [("GL", "good", "id"), ("GL", "2", "id")]
    for family in ("E8", "O2n"):
        with pytest.raises(ValueError):
            verify_combinations(family)


@pytest.mark.parametrize("family", ["A", "BC", "D", "2A"])
def test_good_characteristic_runs_where_the_component_has_unipotents(family):
    # verify runs good characteristic exactly on the components that have
    # good-characteristic unipotents, and phi refuses it on the others
    triples = verify_combinations(family)
    for group, component in {(g, comp) for g, _, comp in triples}:
        good = (group, "good", component) in triples
        assert good == (component == "id")
        ctx = weyl_context(group_spec(group, 3, "2"), component)
        c = elliptic_classes(ctx)[0]
        if not good:
            with pytest.raises(ValueError, match="no unipotent elements in good"):
                phi(group_spec(group, 3, "good"), c)


def test_group_spec_validation():
    with pytest.raises(ValueError, match="unknown group 'SU'"):
        group_spec("SU", 3, "good")
    with pytest.raises(ValueError, match="characteristic must be 'good' or '2'"):
        group_spec("Sp", 3, "5")
    with pytest.raises(ValueError):
        group_spec("O_even", 1, "good")
    assert GROUP_FAMILY["O_even"] == "D"
