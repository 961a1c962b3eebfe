import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from tpflow.network import (
    Branch,
    NetworkError,
    NetworkModel,
    SlackSpec,
    ZipCoefficients,
    _components,
    build_admittance,
    radial_check,
    validate,
)
from tpflow.synth import GenSpec, gen_kary_tree

from conftest import dense_stamp_oracle


def chain(n, r=0.1, x=0.0):
    return [Branch(i, i + 1, r, x) for i in range(n - 1)]


def test_single_branch_assembly():
    # 1/z and -1/z by definition of nodal assembly
    y_dd, y_ds = build_admittance([Branch(0, 1, 0.1, 0.0)], 2)
    assert y_dd.toarray() == pytest.approx(np.array([[10.0 + 0j]]))
    assert y_ds.toarray() == pytest.approx(np.array([[-10.0 + 0j]]))


def test_two_branch_chain_assembly():
    y_dd, y_ds = build_admittance(chain(3, r=0.1), 3)
    assert y_dd.toarray() == pytest.approx(
        np.array([[20.0, -10.0], [-10.0, 10.0]], dtype=complex)
    )
    assert y_ds.toarray() == pytest.approx(np.array([[-10.0], [0.0]], dtype=complex))


def test_nine_bus_tree_row_sums():
    # without shunts every full-matrix row sums to zero, so the Y_dd row sums
    # equal the negated Y_ds column
    branches = gen_kary_tree(GenSpec(n_buses=9, seed=42))
    y_dd, y_ds = build_admittance(branches, 9)
    row_sums = np.asarray(y_dd.sum(axis=1)).ravel()
    assert np.abs(row_sums + y_ds.toarray().ravel()).max() < 1e-10
    oracle = dense_stamp_oracle(branches, 9)
    assert np.abs(y_dd.toarray() - oracle[1:, 1:]).max() < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_assembly_matches_stamp_oracle(seed):
    rng = np.random.default_rng(seed)
    n = 12
    branches = gen_kary_tree(GenSpec(n_buses=n, seed=seed))
    # add one loop branch and random shunts so the oracle covers meshes too
    branches = branches + [Branch(2, n - 1, 0.05, 0.08, b_shunt=0.02)]
    branches = [
        Branch(b.from_bus, b.to_bus, b.r, b.x, b_shunt=float(rng.uniform(0, 0.05)))
        for b in branches
    ]
    y_dd, y_ds = build_admittance(branches, n)
    oracle = dense_stamp_oracle(branches, n)
    assert np.abs(y_dd.toarray() - oracle[1:, 1:]).max() < 1e-12
    assert np.abs(y_ds.toarray() - oracle[1:, :1]).max() < 1e-12


def test_y_dd_symmetric_for_reciprocal_branches():
    branches = gen_kary_tree(GenSpec(n_buses=15, seed=11))
    y_dd = build_admittance(branches, 15)[0].toarray()
    assert np.abs(y_dd - y_dd.T).max() == 0.0


def test_disconnected_graph_rejected():
    with pytest.raises(NetworkError, match="disconnected"):
        build_admittance([Branch(0, 1, 0.1, 0.0)], 3)
    # buses 3 and 4 are two islands of one bus each: both are named
    with pytest.raises(NetworkError, match=r"unreachable buses \[3, 4\]$"):
        build_admittance(chain(3), 5)


@st.composite
def _edge_lists(draw):
    """A node count and edges among the nodes: isolated nodes, self-loops,
    duplicates and both directions of one edge all occur."""
    n = draw(st.integers(1, 30))
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=2 * n))


@given(_edge_lists())
def test_components_match_csgraph(graph):
    n, edges = graph
    i, j = np.array(edges, dtype=int).reshape(-1, 2).T
    adjacency = sparse.csr_matrix((np.ones(len(edges)), (i, j)), shape=(n, n))
    want_count, want = connected_components(adjacency, directed=False)
    count, labels = _components(n, edges)
    # the same count and the same numbering: by each component's lowest node
    assert count == want_count
    assert labels.tolist() == want.tolist()


def test_zero_impedance_branch_rejected():
    with pytest.raises(NetworkError, match="zero-impedance"):
        build_admittance([Branch(0, 1, 0.0, 0.0)], 2)


def test_self_loop_and_bad_endpoint_rejected():
    with pytest.raises(NetworkError, match="self-loop"):
        build_admittance([Branch(0, 0, 0.1, 0.0), Branch(0, 1, 0.1, 0)], 2)
    with pytest.raises(NetworkError, match="references a bus"):
        build_admittance([Branch(0, 5, 0.1, 0.0)], 2)


@pytest.mark.parametrize("y_dd, y_ds", [
    pytest.param(np.eye(3), np.ones((2, 1)), id="3x3-with-2x1"),
    pytest.param(np.eye(3), np.ones((3, 2)), id="y_ds-3x2"),
    pytest.param(np.ones((3, 2)), np.ones((3, 1)), id="y_dd-not-square"),
])
def test_bad_block_shapes_rejected_on_every_route(y_dd, y_ds):
    with pytest.raises(NetworkError, match="expected b x b and b x 1"):
        NetworkModel(y_dd, y_ds)
    model = NetworkModel.from_branches(chain(4), 4)
    with pytest.raises(NetworkError, match="expected b x b and b x 1"):
        dataclasses.replace(model, y_dd=y_dd, y_ds=y_ds)


def test_replace_checks_the_zip_size():
    model = NetworkModel.from_branches(chain(4), 4)
    with pytest.raises(NetworkError, match="ZIP coefficients sized 2, expected 3"):
        dataclasses.replace(model, zip=ZipCoefficients.constant_power(2))


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("build", [
    pytest.param(lambda: Branch(0, 1, _NAN, 0.1), id="branch-r"),
    pytest.param(lambda: Branch(0, 1, 0.1, _INF), id="branch-x"),
    pytest.param(lambda: Branch(0, 1, 0.1, 0.1, b_shunt=_NAN), id="branch-b_shunt"),
    pytest.param(lambda: SlackSpec(complex(_NAN, 0.0)), id="slack"),
    pytest.param(lambda: ZipCoefficients([_NAN, 0.0], [0.0, 0.0], [1.0, 1.0]),
                 id="zip"),
    pytest.param(lambda: NetworkModel([[_NAN]], [[-1.0]]), id="y_dd"),
    pytest.param(lambda: NetworkModel([[1.0]], [[_INF]]), id="y_ds"),
    pytest.param(lambda: dataclasses.replace(
        NetworkModel.from_branches(chain(3), 3), y_ds=[[_NAN], [0.0]]),
        id="replace"),
])
def test_non_finite_values_rejected(build):
    with pytest.raises(NetworkError, match="finite"):
        build()


def test_validate_healthy_chain_is_clean():
    model = NetworkModel.from_branches(chain(4), 4)
    assert validate(model) == []


def test_validate_reports_isolated_node():
    # matrix-supplied model with a demand node coupled to nothing
    model = NetworkModel(
        y_dd=[[10.0, 0.0], [0.0, 0.0]], y_ds=[[-10.0], [0.0]]
    )
    diags = validate(model)
    assert "disconnected component: demand nodes [1]" in diags
    assert any("factorization failed" in d for d in diags)


def test_validate_reports_multi_node_island():
    # node 0 is fed, node 1 hangs off node 0; nodes 2-3 are coupled only to
    # each other, each with a shunt, so Y_dd factorizes but the island has
    # no path to the slack
    y = 10.0
    y_dd = np.array([
        [2 * y, -y, 0, 0],
        [-y, y, 0, 0],
        [0, 0, y + 0.1j, -y],
        [0, 0, -y, y + 0.1j],
    ], dtype=complex)
    y_ds = np.array([[-y], [0], [0], [0]], dtype=complex)
    model = NetworkModel(y_dd=y_dd, y_ds=y_ds)
    assert validate(model) == ["disconnected component: demand nodes [2, 3]"]


def test_validate_reports_symmetry_defect():
    model = NetworkModel(
        y_dd=[[10.0, -5.0], [-4.0, 8.0]], y_ds=[[-5.0], [-4.0]]
    )
    diags = validate(model)
    assert any("symmetry defect" in d for d in diags)


def test_radial_check_chain_and_loop():
    assert radial_check(chain(3), 3) is True
    loop = chain(3) + [Branch(0, 2, 0.1, 0.0)]
    assert radial_check(loop, 3) is False
    # n - 1 branches, but they close a cycle and leave bus 3 unreached
    assert radial_check(loop, 4) is False


@pytest.mark.parametrize("seed", [1, 9, 77])
def test_kary_tree_always_radial(seed):
    n = 40
    branches = gen_kary_tree(GenSpec(n_buses=n, seed=seed))
    assert radial_check(branches, n) is True
    # independent traversal oracle: n-1 edges, all buses reachable, no cycle
    assert len(branches) == n - 1
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for br in branches:
        ra, rb = find(br.from_bus), find(br.to_bus)
        assert ra != rb, "cycle detected"
        parent[ra] = rb
    assert len({find(i) for i in range(n)}) == 1


def test_zip_coefficients_validation():
    with pytest.raises(NetworkError, match="sum to 1"):
        ZipCoefficients(alpha_z=[0.5], alpha_i=[0.2], alpha_p=[0.2])
    with pytest.raises(NetworkError, match="nonnegative"):
        ZipCoefficients(alpha_z=[-0.1], alpha_i=[0.1], alpha_p=[1.0])
    zc = ZipCoefficients.constant_power(3)
    assert zc.is_constant_power


def test_zip_defaults_to_constant_power():
    model = NetworkModel.from_branches(chain(3), 3)
    assert model.zip.is_constant_power
    assert model.zip.alpha_p.shape == (2,)


def test_slack_spec_validation():
    with pytest.raises(NetworkError, match="slack"):
        SlackSpec(0.0 + 0.0j)


def test_zip_size_mismatch_rejected():
    with pytest.raises(NetworkError, match="ZIP"):
        NetworkModel.from_branches(
            chain(3), 3, zip_coeffs=ZipCoefficients.constant_power(5)
        )
