import pytest

from weylunip.classposet import EllipticClassLabel, elliptic_classes, elliptic_label
from weylunip.lusztig import (
    dominance_relation,
    map_table,
    phi,
    verify_combinations,
    verify_theorem,
)
from weylunip.partitions import dominance_leq, family_members
from weylunip.unipotent import GOOD, GROUP_FAMILY, check_group, format_unipotent
from weylunip import weylgroup as wg

from oracle import centraliser_dim, phi_good_char_equals_theta2_of_phi_char2


def _rows(group, n, char, component="id"):
    _, classes, images = map_table(group, n, char, component)
    return {c.partition: format_unipotent(u) for c, u in zip(classes, images)}


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
        for comp, want in [("id", "SO"), ("twisted", "O\\SO")]:
            for c in elliptic_classes(wg.context("D", n, comp)):
                assert phi("O_even", "2", c).so_component == want


def test_phi_linear_groups():
    (c,) = elliptic_classes(wg.context("A", 4))
    assert phi("GL", "good", c).partition == (4,)
    assert phi("GL", "2", c).partition == (4,)
    # only the free rows get an explicit epsilon in the display: 1 is
    # free in (3,1,1) (odd row, even multiplicity) but not in (1^5)
    assert _rows("GLd", 5, "2", "twisted") == {
        (5,): "([5],*)",
        (3, 1, 1): "([3,1,1],ε(1)=1)",
        (1, 1, 1, 1, 1): "([1,1,1,1,1],*)",
    }


def test_phi_rejects():
    c = elliptic_label(wg.context("2A", 3), (3,))
    with pytest.raises(ValueError):
        phi("GLd", "good", c)
    tw = elliptic_label(wg.context("D", 3, "twisted"), (3,))
    with pytest.raises(ValueError):
        phi("O_even", "good", tw)
    # class from the wrong Weyl side
    bc = elliptic_label(wg.context("BC", 3), (3,))
    with pytest.raises(ValueError, match="does not belong to the Weyl side of O_even"):
        phi("O_even", "2", bc)
    # phi reads its group through check_group, so an unknown one is
    # refused by name, not by a KeyError
    with pytest.raises(ValueError, match="unknown group 'SU'"):
        phi("SU", "good", bc)


def test_phi_refuses_a_label_that_names_no_elliptic_class():
    # built by hand, past elliptic_label: (3,) has one part, so it names
    # a class of D(3)'s twisted component, not of the identity one
    c = EllipticClassLabel(wg.context("D", 3), (3,))
    with pytest.raises(ValueError, match="not an elliptic class"):
        phi("O_even", "2", c)


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
        _, _, images = map_table(group, n, char, comp)
        assert len(set(images)) == len(images), (group, n, char, comp)


def test_phi_image_avoids_split_classes():
    # the image consists of classes without I/II decoration
    for n in range(2, 8):
        for char in ("good", "2"):
            comps = ["id"] if char == "good" else ["id", "twisted"]
            for comp in comps:
                _, _, images = map_table("O_even", n, char, comp)
                for u in images:
                    assert u.split is None


def test_transfer_square_commutes():
    for group in ("Sp", "O_odd"):
        for n in range(1, 6):
            for alpha in family_members(n):
                assert phi_good_char_equals_theta2_of_phi_char2(group, n, alpha)
    for n in range(2, 6):
        for alpha in wg.elliptic_partitions(wg.context("D", n)):
            assert phi_good_char_equals_theta2_of_phi_char2("O_even", n, alpha)


# GL's one elliptic class at every rank; the others up to rank 28, about
# 1.5 s in all, far past the ranks verify reaches
CENTRALISER_RANKS = [("GL", range(1, 61))] + [
    (group, range(wg.FAMILY_RULES[GROUP_FAMILY[group]].min_rank, 29))
    for group in ("Sp", "O_odd", "O_even")
]


@pytest.mark.parametrize("group,ranks", CENTRALISER_RANKS, ids=[g for g, _ in CENTRALISER_RANKS])
def test_phi_image_centraliser_has_the_class_length(group, ranks):
    # dim Z_G(u) = l(w) for u in phi(C) and w minimal in C (Lusztig 2011,
    # Represent. Theory 15), G semisimple: GL drops its 1-dimensional centre
    centre = 1 if group == "GL" else 0
    for n in ranks:
        ctx, classes, images = map_table(group, n, GOOD)
        for c, u in zip(classes, images):
            want = wg.length(ctx, wg.class_rep(ctx, c.partition))
            assert centraliser_dim(u) - centre == want, (group, n, c.partition, str(u))


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
        _, classes, _ = map_table(group, 3, "2", component)
        if not good:
            with pytest.raises(ValueError, match="no unipotent elements in good"):
                phi(group, "good", classes[0])


@pytest.mark.parametrize("family", ["A", "BC", "D", "2A"])
def test_verify_runs_exactly_what_check_group_accepts(family):
    # the one rule read from both ends: verify's combinations and the gate
    n = wg.FAMILY_RULES[family].min_rank
    accepted = []
    for group in GROUP_FAMILY:
        for component in (wg.IDENTITY_COMPONENT, wg.TWISTED_COMPONENT):
            for char in ("good", "2"):
                try:
                    ctx = check_group(group, n, char, component)
                except ValueError:
                    continue
                if ctx.family == family:
                    accepted.append((group, char, component))
    assert sorted(verify_combinations(family)) == sorted(accepted)


def test_group_spec_validation():
    with pytest.raises(ValueError, match="unknown group 'SU'"):
        map_table("SU", 3, "good")
    with pytest.raises(ValueError, match="characteristic must be 'good' or '2'"):
        map_table("Sp", 3, "5")
    with pytest.raises(ValueError):
        map_table("O_even", 1, "good")
    assert GROUP_FAMILY["O_even"] == "D"


@pytest.mark.parametrize("family", ["A", "BC", "D", "2A"])
def test_map_table_pairs_each_class_with_its_image(family):
    # verify, map and hasse all read images[i] as the image of classes[i]
    for group, char, component in verify_combinations(family):
        for n in range(wg.FAMILY_RULES[family].min_rank, 7):
            ctx, classes, images = map_table(group, n, char, component)
            assert ctx == wg.context(family, n, component)
            assert classes == elliptic_classes(ctx)
            assert images == [phi(group, char, c) for c in classes]


DOMINANCE_CONTEXTS = (
    [("A", n, "id") for n in range(1, 10)]
    + [("BC", n, "id") for n in range(1, 11)]
    + [("D", n, comp) for n in range(2, 11) for comp in ("id", "twisted")]
    + [("2A", n, "twisted") for n in range(2, 12)]
)


@pytest.mark.parametrize("fam,n,comp", DOMINANCE_CONTEXTS)
def test_dominance_relation_is_pairwise_dominance(fam, n, comp):
    ctx = wg.context(fam, n, comp)
    alphas = [c.partition for c in elliptic_classes(ctx)]
    dom = dominance_relation(ctx)
    # tuples all the way down: the cached value cannot be changed by a caller
    assert type(dom) is tuple and all(type(row) is tuple for row in dom)
    assert dom == tuple(tuple(dominance_leq(a, b) for b in alphas) for a in alphas)
