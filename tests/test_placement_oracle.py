"""Exact oracle for the placement policies.

The reference below is the slot-list formulation of the three policies:
every rack's free GPUs are materialized as repeated host names, and the
racks are ranked by the length of those lists. The policies must agree
with it exactly on a seeded corpus of fragmented clusters: the same
hosts, the same ``PlacementError`` text, the same candidates handed to
``_score`` in the same order, and the same random draws. The cluster's
free-capacity index, which the policies decide from, must equal a
recount from the per-host counts after every step.
"""

import random
from collections import Counter

from repro.core.compatibility import CompatibilityChecker
from repro.core.incremental import IncrementalCompatibilityEngine
from repro.errors import PlacementError
from repro.net.topology import NodeKind, Topology
from repro.scheduler.cluster import ClusterState
from repro.scheduler.placement import (
    CompatibilityAwarePlacement,
    ConsolidatedPlacement,
    RandomPlacement,
)
from repro.units import gbps, ms
from repro.workloads.job import JobSpec

CAP = gbps(42)


# ---------------------------------------------------------------------------
# Reference: the slot-list policies
# ---------------------------------------------------------------------------

def _reference_slots_by_rack(cluster):
    """Free GPU slots per rack as repeated host names."""
    slots = {}
    for rack, hosts in cluster.hosts_by_rack().items():
        rack_slots = [
            host for host in hosts for _ in range(cluster.free_gpus(host))
        ]
        if rack_slots:
            slots[rack] = rack_slots
    return slots


def _reference_random(policy, cluster, spec, n_workers, seen):
    slots = [
        host
        for rack_slots in _reference_slots_by_rack(cluster).values()
        for host in rack_slots
    ]
    if len(slots) < n_workers:
        seen["random", "refused"] += 1
        raise PlacementError(
            f"{spec.job_id}: {n_workers} workers > {len(slots)} free GPUs"
        )
    picked = list(policy._rng.choice(len(slots), size=n_workers, replace=False))
    hosts = [slots[i] for i in picked]
    rack_of = {
        h: cluster.topology.rack_of(h) or "" for h in sorted(set(hosts))
    }
    hosts.sort(key=lambda h: (rack_of[h], h))
    seen["random", "placed"] += 1
    return hosts


def _reference_consolidated(cluster, spec, n_workers, seen):
    slots_by_rack = _reference_slots_by_rack(cluster)
    for rack in sorted(slots_by_rack, key=lambda r: len(slots_by_rack[r])):
        if len(slots_by_rack[rack]) >= n_workers:
            seen["consolidated", "rack-local"] += 1
            return slots_by_rack[rack][:n_workers]
    hosts = []
    for rack in sorted(slots_by_rack, key=lambda r: -len(slots_by_rack[r])):
        take = min(n_workers - len(hosts), len(slots_by_rack[rack]))
        hosts.extend(slots_by_rack[rack][:take])
        if len(hosts) == n_workers:
            seen["consolidated", "spill"] += 1
            return hosts
    seen["consolidated", "refused"] += 1
    raise PlacementError(
        f"{spec.job_id}: {n_workers} workers > "
        f"{cluster.total_free_gpus()} free GPUs"
    )


def _reference_cross_rack_candidates(policy, slots_by_rack, n_workers):
    racks = sorted(slots_by_rack, key=lambda r: -len(slots_by_rack[r]))
    candidates = []
    for i, first in enumerate(racks):
        for second in racks[i + 1:]:
            total = len(slots_by_rack[first]) + len(slots_by_rack[second])
            if total < n_workers:
                continue
            take_first = min(n_workers, len(slots_by_rack[first]))
            hosts = (
                slots_by_rack[first][:take_first]
                + slots_by_rack[second][: n_workers - take_first]
            )
            candidates.append(hosts)
            if len(candidates) >= policy.max_candidates:
                return candidates, "pair-capped"
    if candidates:
        return candidates, "pair"
    hosts = []
    for rack in racks:
        take = min(n_workers - len(hosts), len(slots_by_rack[rack]))
        hosts.extend(slots_by_rack[rack][:take])
        if len(hosts) == n_workers:
            return [hosts], "greedy"
    return [], "refused"


def _reference_compatibility(policy, cluster, spec, n_workers, seen):
    slots_by_rack = _reference_slots_by_rack(cluster)
    for rack in sorted(slots_by_rack, key=lambda r: len(slots_by_rack[r])):
        if len(slots_by_rack[rack]) >= n_workers:
            seen[policy.variant, "rack-local"] += 1
            return slots_by_rack[rack][:n_workers]
    candidates, branch = _reference_cross_rack_candidates(
        policy, slots_by_rack, n_workers
    )
    seen[policy.variant, branch] += 1
    if not candidates:
        raise PlacementError(
            f"{spec.job_id}: {n_workers} workers > "
            f"{cluster.total_free_gpus()} free GPUs"
        )
    best_hosts = None
    best_key = None
    for index, hosts in enumerate(candidates):
        if index == 1:
            seen[policy.variant, "scored-several"] += 1
        compatible, overlap = policy._score(cluster, spec, hosts)
        key = (0 if compatible else 1, overlap)
        if best_key is None or key < best_key:
            best_key, best_hosts = key, hosts
            if key == (0, 0.0):
                break
    return best_hosts


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

class _RecordingPlacement(CompatibilityAwarePlacement):
    """Records every candidate handed to ``_score``."""

    def __init__(self, variant, **kwargs):
        super().__init__(**kwargs)
        self.variant = variant
        self.scored = []

    def _score(self, cluster, spec, hosts):
        self.scored.append(list(hosts))
        return super()._score(cluster, spec, hosts)


def _interleaved_topology():
    """Racks whose hosts interleave in insertion order, plus hosts that
    hang off the spine and so have no rack."""
    topology = Topology()
    topology.add_node("spine0", NodeKind.SPINE)
    for rack in range(3):
        topology.add_node(f"tor{rack}", NodeKind.TOR)
        topology.add_link(f"tor{rack}", "spine0", CAP, name=f"up_{rack}")
    for index, rack in enumerate((1, 0, None, 1, 2, 0, None, 2)):
        host = f"x{index}"
        topology.add_node(host, NodeKind.HOST)
        switch = "spine0" if rack is None else f"tor{rack}"
        topology.add_link(host, switch, CAP)
    return topology


def _topology(rng):
    draw = rng.randrange(10)
    if draw == 0:
        return Topology.fat_tree(4, host_capacity=CAP)
    if draw == 1:
        return _interleaved_topology()
    return Topology.leaf_spine(
        n_racks=rng.randint(1, 8),
        hosts_per_rack=rng.randint(1, 4),
        n_spines=rng.randint(1, 2),
        host_capacity=CAP,
    )


def _spec(rng, job_id, n_workers):
    """A job of 200 ms iterations. Two long-communicating jobs never fit
    together, which the solver's pairwise screen settles at once; the
    corpus never reaches its annealing fallback, so the test stays
    fast."""
    comm_ms = rng.choice((20, 110, 110))
    return JobSpec(
        job_id=job_id,
        compute_time=ms(200 - comm_ms),
        comm_bytes=ms(comm_ms) * CAP,
        n_workers=n_workers,
    )


def _place(cluster, engine, spec, hosts):
    job = cluster.place(spec, hosts)
    if job.uses_network:
        engine.add(
            engine.circle(spec), [link.name for link in job.links]
        )


def _remove(cluster, engine, job_id):
    if job_id in engine:
        engine.remove(job_id)
    cluster.remove(job_id)


def _free_slots(cluster):
    return [
        host
        for hosts in cluster.hosts_by_rack().values()
        for host in hosts
        for _ in range(cluster.free_gpus(host))
    ]


def _fragment(rng, cluster, engine, prefix, steps):
    """Random place/remove steps that leave hosts and racks unevenly
    free. Three jobs in four take two random free slots and so load the
    links between them; the rest fill part of one host."""
    for step in range(steps):
        if cluster.jobs and rng.random() < 0.3:
            job_ids = [job.job_id for job in cluster.jobs]
            _remove(cluster, engine, rng.choice(job_ids))
            continue
        slots = _free_slots(cluster)
        if not slots:
            continue
        if len(slots) >= 2 and rng.random() < 0.75:
            picked = sorted(rng.sample(range(len(slots)), 2))
            hosts = [slots[index] for index in picked]
        else:
            host = rng.choice(slots)
            hosts = [host] * rng.randint(1, cluster.free_gpus(host))
        spec = _spec(rng, f"{prefix}{step}", len(hosts))
        _place(cluster, engine, spec, hosts)


def _outcome(place):
    try:
        return ("ok", list(place()))
    except PlacementError as exc:
        return ("error", str(exc))


class TestPlacementOracle:
    """The policies equal the slot-list reference, decision for decision."""

    N_CLUSTERS = 250
    STATES_PER_CLUSTER = 6

    def test_seeded_corpus_matches_reference(self):
        rng = random.Random(20261017)
        seen = Counter()
        decisions = 0
        for case in range(self.N_CLUSTERS):
            cluster = ClusterState(
                _topology(rng), gpus_per_host=rng.randint(1, 8)
            )
            checker = CompatibilityChecker(capacity=CAP)
            engine = IncrementalCompatibilityEngine(checker=checker, seed=0)
            max_candidates = rng.randint(1, 16)
            compat = [
                _RecordingPlacement(
                    "checker", checker=checker,
                    max_candidates=max_candidates,
                ),
                _RecordingPlacement(
                    "engine", checker=checker,
                    max_candidates=max_candidates, engine=engine,
                ),
                _RecordingPlacement(
                    "cluster-level", checker=checker,
                    max_candidates=max_candidates, cluster_level=True,
                ),
            ]
            reference_random = RandomPlacement(seed=case)
            random_policy = RandomPlacement(seed=case)
            _fragment(
                rng, cluster, engine, f"c{case}-f", rng.randint(0, 24)
            )
            for state in range(self.STATES_PER_CLUSTER):
                n_workers = rng.randint(1, cluster.total_free_gpus() + 2)
                spec = _spec(rng, f"c{case}-s{state}", n_workers)
                where = f"case {case} state {state} n={n_workers}"

                expected = _outcome(lambda: _reference_random(
                    reference_random, cluster, spec, n_workers, seen
                ))
                assert _outcome(lambda: random_policy.place(
                    cluster, spec, n_workers
                )) == expected, where
                assert (
                    random_policy._rng.bit_generator.state
                    == reference_random._rng.bit_generator.state
                ), where

                expected = _outcome(lambda: _reference_consolidated(
                    cluster, spec, n_workers, seen
                ))
                assert _outcome(lambda: ConsolidatedPlacement().place(
                    cluster, spec, n_workers
                )) == expected, where
                decisions += 2

                for policy in compat:
                    policy.scored = []
                    expected = _outcome(lambda: _reference_compatibility(
                        policy, cluster, spec, n_workers, seen
                    ))
                    expected_scored = policy.scored
                    policy.scored = []
                    assert _outcome(lambda: policy.place(
                        cluster, spec, n_workers
                    )) == expected, (policy.variant, where)
                    assert policy.scored == expected_scored, (
                        policy.variant, where
                    )
                    decisions += 1

                # Move the cluster on: admit the decision or free a job.
                if expected[0] == "ok" and rng.random() < 0.6:
                    _place(cluster, engine, spec, expected[1])
                elif cluster.jobs and rng.random() < 0.5:
                    job_ids = [job.job_id for job in cluster.jobs]
                    _remove(cluster, engine, rng.choice(job_ids))

        assert decisions >= 3000, decisions
        # Every branch of every policy is reached.
        for policy, branch, floor in (
            ("random", "placed", 100),
            ("random", "refused", 50),
            ("consolidated", "rack-local", 100),
            ("consolidated", "spill", 50),
            ("consolidated", "refused", 50),
        ):
            assert seen[policy, branch] >= floor, (policy, branch, seen)
        for variant in ("checker", "engine", "cluster-level"):
            for branch, floor in (
                ("rack-local", 100), ("pair", 50), ("pair-capped", 20),
                ("greedy", 50), ("refused", 50), ("scored-several", 15),
            ):
                assert seen[variant, branch] >= floor, (
                    variant, branch, seen
                )


class TestCountIndex:
    """The free-capacity index always equals a recount from the hosts."""

    N_STEPS = 3000

    @staticmethod
    def _assert_index_matches(cluster, where):
        recount = {
            rack: sum(cluster.free_gpus(host) for host in hosts)
            for rack, hosts in cluster.hosts_by_rack().items()
        }
        assert cluster.free_gpus_by_rack() == {
            rack: free for rack, free in recount.items() if free
        }, where
        assert cluster.total_free_gpus() == sum(recount.values()), where
        slots = _reference_slots_by_rack(cluster)
        for rack, free in cluster.free_gpus_by_rack().items():
            for count in range(free + 2):
                assert cluster.rack_slots(rack, count) == (
                    slots[rack][:count]
                ), (where, rack, count)

    def test_random_steps_keep_index_exact(self):
        rng = random.Random(7)
        refused = Counter()
        cluster = None
        for step in range(self.N_STEPS):
            if step % 150 == 0:
                cluster = ClusterState(
                    _topology(rng), gpus_per_host=rng.randint(1, 8)
                )
            hosts = [
                host
                for rack in cluster.hosts_by_rack().values()
                for host in rack
            ]
            draw = rng.random()
            if cluster.jobs and draw < 0.3:
                job_ids = [job.job_id for job in cluster.jobs]
                cluster.remove(rng.choice(job_ids))
            else:
                # Any host multiset, so some requests overrun a host and
                # some name a job that is already placed or no host.
                picked = [
                    rng.choice(hosts) for _ in range(rng.randint(0, 6))
                ]
                if rng.random() < 0.05:
                    picked.append("nowhere")
                job_id = f"j{step}"
                if cluster.jobs and rng.random() < 0.1:
                    job_id = rng.choice([job.job_id for job in cluster.jobs])
                try:
                    cluster.place(_spec(rng, job_id, 1), picked)
                except PlacementError as exc:
                    refused[str(exc).split(" ")[0]] += 1
            self._assert_index_matches(cluster, f"step {step}")
        # Refusals of every kind left the counts untouched.
        assert refused["host"] >= 50, refused
        assert refused["need"] >= 20, refused
        assert refused["job"] >= 20, refused
        assert refused["unknown"] >= 20, refused
