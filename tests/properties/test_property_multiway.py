"""Property tests: multiway identification on generated 3-way splits.

For any seeded universe split into three overlapping sources:

- every pairwise projection of the multiway clusters equals the
  corresponding two-way EntityIdentifier run,
- every pairwise projection is sound against the split's ground truth,
- cluster membership is transitive by construction,
- the identity graph's clusters equal the pairwise-composition oracle's,
  unblocked and under the hash blocker, also when some extended-key
  values stay NULL.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import make_blocker
from repro.conformance import pairwise_composition_clusters
from repro.core.identifier import EntityIdentifier
from repro.core.multiway import MultiwayIdentifier
from repro.entities import IdentityGraph, cluster_fingerprint
from repro.workloads import SideSpec, split_universe_many
from repro.workloads.restaurants import RestaurantWorkloadSpec, _generate_universe

SIDES = [
    SideSpec("A", ("name", "cuisine", "street"), ("name", "cuisine"), 0.7),
    SideSpec("B", ("name", "speciality", "county"), ("name", "speciality"), 0.7),
    SideSpec("C", ("name", "cuisine", "speciality"), ("name", "cuisine"), 0.5),
]


# A and C both lack speciality: where no ILFD derives it, their tuples
# for one entity share a NULL in the same key position and must not match.
SHARED_GAP_SIDES = [
    SideSpec("A", ("name", "cuisine", "street"), ("name", "cuisine"), 0.7),
    SideSpec("B", ("name", "speciality", "county"), ("name", "speciality"), 0.7),
    SideSpec("C", ("name", "cuisine", "street"), ("name", "street"), 0.7),
]


def _build(seed, derivable_fraction=1.0, sides=SIDES):
    spec = RestaurantWorkloadSpec(
        n_entities=15,
        name_pool=25,
        derivable_fraction=derivable_fraction,
        seed=seed,
    )
    universe, ilfds = _generate_universe(spec)
    relations, truth = split_universe_many(universe, sides, seed=seed)
    return relations, truth, ilfds


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=3_000))
def test_pairwise_projection_equals_two_way(seed):
    relations, _, ilfds = _build(seed)
    multiway = MultiwayIdentifier(
        relations, ("name", "cuisine", "speciality"), ilfds=ilfds
    )
    for first, second in (("A", "B"), ("A", "C"), ("B", "C")):
        two_way = EntityIdentifier(
            relations[first],
            relations[second],
            ("name", "cuisine", "speciality"),
            ilfds=ilfds,
            derive_ilfd_distinctness=False,
        ).matching_table()
        assert multiway.pairwise_pairs(first, second) == two_way.pairs()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=3_000))
def test_pairwise_projection_sound_against_truth(seed):
    relations, truth, ilfds = _build(seed)
    multiway = MultiwayIdentifier(
        relations, ("name", "cuisine", "speciality"), ilfds=ilfds
    )
    for (first, second), expected in truth.items():
        declared = multiway.pairwise_pairs(first, second)
        assert declared <= expected  # soundness on every source pair


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=3_000))
def test_cluster_transitivity(seed):
    relations, _, ilfds = _build(seed)
    multiway = MultiwayIdentifier(
        relations, ("name", "cuisine", "speciality"), ilfds=ilfds
    )
    ab = multiway.pairwise_pairs("A", "B")
    bc = multiway.pairwise_pairs("B", "C")
    ac = multiway.pairwise_pairs("A", "C")
    b_to_a = {}
    for a_key, b_key in ab:
        b_to_a.setdefault(b_key, set()).add(a_key)
    for b_key, c_key in bc:
        for a_key in b_to_a.get(b_key, ()):
            assert (a_key, c_key) in ac


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=3_000),
    # Below 1, some speciality values stay NULL; above 0, some ILFD
    # derives speciality, so the A–C pipeline accepts the key.
    derivable_fraction=st.sampled_from([1.0, 0.6]),
    sides=st.sampled_from([SIDES, SHARED_GAP_SIDES]),
)
def test_graph_clusters_equal_pairwise_composition(seed, derivable_fraction, sides):
    relations, _, ilfds = _build(seed, derivable_fraction, sides)
    key = ("name", "cuisine", "speciality")
    graph = IdentityGraph(relations, key, ilfds=ilfds)
    unblocked = pairwise_composition_clusters(relations, key, ilfds=ilfds)
    blocked = pairwise_composition_clusters(
        relations, key, ilfds=ilfds, blocker_factory=lambda: make_blocker("hash")
    )
    assert graph.fingerprint() == cluster_fingerprint(unblocked)
    assert graph.fingerprint() == cluster_fingerprint(blocked)
