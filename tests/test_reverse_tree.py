"""Inverse affine steps, path composition, and the candidate tree."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import oracles
from collatz_lab import reverse_tree as rt
from collatz_lab.errors import DomainError

exponents = st.integers(min_value=1, max_value=12)


def test_candidate_enumeration_matches_sieve():
    want = oracles.w_candidates_by_sieve(500)
    assert [rt.w_candidate(m) for m in range(1, 501)] == want


def test_candidate_first_twenty():
    assert [rt.w_candidate(m) for m in range(1, 21)] == [
        1, 5, 7, 11, 13, 17, 19, 23, 25, 29,
        31, 35, 37, 41, 43, 47, 49, 53, 55, 59,
    ]


def test_parent_first_twenty():
    assert [rt.w_forward(rt.w_candidate(m)) for m in range(1, 21)] == [
        1, 1, 13, 13, 5, 13, 11, 5, 19, 11,
        121, 5, 7, 31, 49, 121, 37, 5, 47, 67,
    ]


def test_generated_z_values():
    assert rt.z_from_w(1) == 2
    assert rt.z_from_w(5) == 8
    assert rt.z_from_w(7) == 26
    assert rt.z_from_w(11) == 26
    assert rt.z_from_w(25) == 38


def test_w_from_z_is_odd_part():
    assert rt.w_from_z(26) == 13
    assert rt.w_from_z(80) == 5
    assert rt.w_from_z(2) == 1


@given(st.integers(min_value=1, max_value=10**12))
def test_candidates_avoid_two_and_three(m):
    w = rt.w_candidate(m)
    assert w % 2 == 1 and w % 3 != 0
    # consecutive candidates differ by 2 or 4 and stay sorted
    assert rt.w_candidate(m + 1) - w in (2, 4)


@given(st.integers(min_value=1, max_value=10**12))
def test_forward_map_lands_on_a_candidate(m):
    w = rt.w_candidate(m)
    parent = rt.w_forward(w)
    assert parent % 2 == 1 and parent % 3 != 0


@pytest.mark.parametrize("bad", [0, -5, 3, 9, 4, 15])
def test_candidate_domain_errors(bad):
    with pytest.raises(DomainError):
        rt.z_from_w(bad)


def test_w_candidate_validation():
    with pytest.raises(DomainError):
        rt.w_candidate(0)
    with pytest.raises(DomainError):
        rt.w_candidate(-1)


# --- affine steps ----------------------------------------------------------


def test_affine_step_fields():
    step = rt.AffineStep(1, 2)
    assert step.slope == Fraction(8, 3)
    assert step.intercept == Fraction(-4, 3)
    assert step.apply(8) == 20


def test_reverse_affine_examples():
    # forward even-engine steps 20 -> 8 -> 2, inverted
    assert rt.reverse_affine_step(2, 1, 1) == 2
    assert rt.reverse_affine_step(8, 1, 2) == 20
    assert rt.reverse_affine_step(2, 1, 3) == 8


@given(
    exponents,
    exponents,
    st.one_of(
        st.integers(min_value=-10**9, max_value=10**9),
        st.fractions(max_denominator=10**6),
    ),
)
def test_affine_apply_matches_oracle(alpha, beta, z):
    assert rt.reverse_affine_step(z, alpha, beta) == oracles.affine_apply(
        z, alpha, beta
    )


def test_affine_step_validation():
    with pytest.raises(DomainError):
        rt.AffineStep(0, 1)
    with pytest.raises(DomainError):
        rt.AffineStep(1, 0)


def test_compose_path_example():
    comp = rt.compose_path([(1, 3), (1, 2)])
    assert comp.length == 2
    assert comp.apply(2) == 20


@given(
    st.lists(st.tuples(exponents, exponents), min_size=1, max_size=16),
    st.integers(min_value=-10**6, max_value=10**6),
)
def test_compose_path_matches_sequential(steps, z0):
    comp = rt.compose_path(steps)
    assert comp.apply(z0) == oracles.compose_by_sequential_apply(z0, steps)
    assert comp.length == len(steps)


def test_compose_path_rejects_empty():
    with pytest.raises(DomainError):
        rt.compose_path([])


def test_steiner_grid():
    assert rt.steiner_search(20, 20) == [(1, 1, 2)]
    assert rt.steiner_search(1, 1) == [(1, 1, 2)]
    with pytest.raises(DomainError):
        rt.steiner_search(0, 5)


# --- the tree ----------------------------------------------------------------


def test_tree_shape_first_twenty_candidates():
    tree = rt.build_tree(20, 16)
    assert tree.root == rt.WZNode(1, 2)
    assert tree.children[1] == (1, 5)
    assert tree.children[5] == (13, 23, 35, 53)
    assert tree.children[13] == (7, 11, 17)
    assert tree.depths[1] == 0
    assert tree.depths[5] == 1
    assert tree.depths[23] == 2
    assert tree.depths[17] == 3
    assert tree.orphans == (
        rt.Orphan(31, 121),
        rt.Orphan(41, 31),
        rt.Orphan(47, 121),
        rt.Orphan(55, 47),
        rt.Orphan(59, 67),
    )


def test_tree_is_breadth_first():
    tree = rt.build_tree(20, 16)
    assert tree.nodes[0] == rt.WZNode(1, 2)
    assert tree.nodes[1] == rt.WZNode(5, 8)
    depths = [tree.depths[node.w] for node in tree.nodes]
    assert depths == sorted(depths)


def test_tree_children_ascend():
    # Buckets fill in m order and w_candidate grows with m, so none is sorted.
    tree = rt.build_tree(20000, 40)
    assert len(tree.children) > 1000
    for w, kids in tree.children.items():
        assert all(a < b for a, b in zip(kids, kids[1:])), w


def test_tree_edges_respect_forward_map():
    tree = rt.build_tree(60, 20)
    for node in tree.nodes:
        parent = tree.parents[node.w]
        assert parent == rt.w_forward(node.w)
        if node.w != 1:
            assert tree.depths[node.w] == tree.depths[parent] + 1


def test_tree_z_values_match_z_from_w():
    tree = rt.build_tree(300, 40)
    assert tree.root.z == rt.z_from_w(1)
    for node in tree.nodes:
        assert node.z == rt.z_from_w(node.w) == oracles.apt_step_by_iteration(node.w)
    for orphan in tree.orphans:
        assert orphan.parent == rt.w_forward(orphan.w)


def test_tree_depth_bound_zero_keeps_only_root():
    tree = rt.build_tree(20, 0)
    assert [node.w for node in tree.nodes] == [1]
    assert all(o.w != 1 for o in tree.orphans)


def test_tree_validation():
    with pytest.raises(DomainError):
        rt.build_tree(0, 4)
    with pytest.raises(DomainError):
        rt.build_tree(5, -1)


def test_cycle_scan_finds_only_the_trivial_loop():
    report = rt.cycle_scan(100, 1000)
    assert report.cycles == ((1,),)
    assert report.reached_root == 99
    assert report.budget_exhausted == ()


def test_cycle_scan_smallest_case():
    report = rt.cycle_scan(1, 10)
    assert report.cycles == ((1,),)
    assert report.reached_root == 0


def test_cycle_scan_validation():
    with pytest.raises(DomainError):
        rt.cycle_scan(0, 10)
    with pytest.raises(DomainError):
        rt.cycle_scan(10, 0)


def test_multiplicity_counts():
    assert rt.multiplicity(5, 20) == (4, (13, 23, 35, 53))
    assert rt.multiplicity(13, 20) == (3, (7, 11, 17))
    assert rt.multiplicity(1, 2) == (2, (1, 5))


def test_multiplicity_preimage_z_values_scale_by_powers_of_two():
    # all z's over one parent share its odd part, so ratios are 2-powers
    count, pre = rt.multiplicity(5, 60)
    assert count >= 4
    zs = sorted(rt.z_from_w(w) for w in pre)
    for z in zs:
        ratio, base = divmod(z, zs[0])
        assert base == 0
        assert ratio & (ratio - 1) == 0


@pytest.mark.parametrize(
    "fn,args",
    [
        (rt.AffineStep, (True, 1)),
        (rt.AffineStep, (1, 1.0)),
        (rt.steiner_search, (2.5, 3)),
        (rt.build_tree, (10, 2.5)),
        (rt.build_tree, (2.5, 3)),
        (rt.build_tree, (True, 3)),
        (rt.cycle_scan, (10, 2.5)),
        (rt.cycle_scan, (2.5, 10)),
        (rt.multiplicity, (5, 2.5)),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_rejects_bool_and_non_int_arguments(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


def test_multiplicity_validation():
    with pytest.raises(DomainError):
        rt.multiplicity(3, 10)   # divisible by three
    with pytest.raises(DomainError):
        rt.multiplicity(4, 10)   # even
    with pytest.raises(DomainError):
        rt.multiplicity(5, 0)
