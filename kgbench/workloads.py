"""The benchmark's workloads: ``build`` and ``update``, measured end to
end, and ``query``, the read side, which runs in the traced pass only.

Each workload prepares its state untimed, then runs rounds in a closed
loop: one client, no think time, each call starts when the previous one
returns. A round returns its timed units, each ``(call seconds, triples)``:
the build; each ``update_flagship`` call; the four read-side calls
together. Every timed call goes through ``timed`` (a per-call timeout, so a
stall is a failed op and not a hung benchmark). Every round's outputs are
checked untimed against expectations computed once per seed before the
loop: the single-threaded oracle, or the engine's driver twin where no
oracle exists.
"""

from __future__ import annotations

import os
import shutil
import signal
import time

import pyarrow.dataset as pads
import pyarrow.parquet as pq

from . import corpus as C

N_DOCS = 500            # pages ≈ 2 × N_DOCS, triples ≈ 62 × N_DOCS
NUM_BUCKETS = 16
UPDATE_BATCHES = 2      # each touches a pair of the 20 graphs
CALL_TIMEOUT_S = 90.0

ACTIVITY_STATS = """
    PREFIX prov: <http://www.w3.org/ns/prov#>
    SELECT ?g (COUNT(?a) AS ?n_used) WHERE {
        GRAPH ?g { ?a rdf:type prov:Activity .
                   ?a prov:used ?e }
    } GROUP BY ?g ORDER BY ?g
"""


class CallTimeout(Exception):
    pass


class CheckFailed(Exception):
    pass


def _on_alarm(signum, frame):
    raise CallTimeout("call exceeded its timeout")


def timed(fn, timeout_s: float = CALL_TIMEOUT_S):
    """Run ``fn()`` under a wall-clock timeout → (result, seconds). Calls
    nest: an inner call never outlives the timeout of the one around it."""
    outer = signal.getitimer(signal.ITIMER_REAL)[0]
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL,
                     min(timeout_s, outer) if outer else timeout_s)
    t0 = time.perf_counter()
    try:
        out = fn()
        return out, time.perf_counter() - t0
    finally:
        left = outer - (time.perf_counter() - t0) if outer else 0
        signal.setitimer(signal.ITIMER_REAL, max(left, 1e-3) if outer else 0)
        signal.signal(signal.SIGALRM, old)


def store_triples(root: str) -> set:
    """(graph, subj, pred, obj) set of a written store, read with pyarrow
    (independent of the engine's read path)."""
    t = pads.dataset(root, format="parquet").to_table(columns=list(C.KEY))
    return set(zip(*(t.column(k).to_pylist() for k in C.KEY)))


def store_rows(root: str) -> int:
    return pads.dataset(root, format="parquet").count_rows()


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def frame_rows(df) -> list[tuple]:
    return sorted(map(tuple, df.astype(str).itertuples(index=False)))


class Build:
    """Cold build: pages Parquet → flagship → written store."""

    def __init__(self, docs: list[C.Doc], work: str):
        os.makedirs(work, exist_ok=True)
        graphs = C.graphs_of(docs)
        self.contributors = C.contributors(graphs)
        self.pages_path = os.path.join(work, "pages.parquet")
        pq.write_table(C.pages_table([p for d in docs for p in d.pages]),
                       self.pages_path)
        self.expected = C.expected_triples(C.revisions_for(docs), graphs)
        self.store = os.path.join(work, "store")

    def prepare(self) -> None:
        """One untimed round: the first build in a session pays for lazy
        set-up (worker imports, Ray Data's first plans) that later builds
        do not."""
        self.round()

    def round(self) -> list[tuple[list[float], int]]:
        from gitprov_ray import store
        from gitprov_ray.pipelines import flagship

        shutil.rmtree(self.store, ignore_errors=True)
        written, s = timed(lambda: store.write_store(
            flagship.flagship_from_pages_parquet(
                self.pages_path, self.contributors, num_buckets=NUM_BUCKETS),
            self.store))
        self.check()
        return [([s], sum(written.values()))]

    def check(self) -> None:
        check(store_triples(self.store) == self.expected,
              "build: store differs from the oracle")
        check(store_rows(self.store) == len(self.expected),
              "build: store holds duplicate triples")


class Update:
    """Incremental merges of later snapshots into a first-snapshot base,
    then one re-send of a batch already merged."""

    def __init__(self, docs: list[C.Doc], work: str, seed: int):
        self.plan = C.update_plan(seed, docs, UPDATE_BATCHES)
        os.makedirs(work, exist_ok=True)
        self.work = work
        self.base = os.path.join(work, "update_base")
        self.wd = os.path.join(work, "update_wd")
        delivered = {C.snapshot_id(p) for d in docs for p in d.pages[:1]}
        delivered |= {C.snapshot_id(p) for b in self.plan.batches for p in b}
        self.expected = C.expected_triples(
            C.revisions_for(docs, delivered), C.graphs_of(docs))
        self.batch_tables = [C.pages_table(b) for b in self.plan.batches]

    def prepare(self) -> None:
        """Base store via the public checkpoint API: a checkpointed run
        over the single-snapshot documents, then one merge of the first
        snapshot of every other url."""
        import ray.data as rd

        from gitprov_ray import checkpoint

        docs_dir = os.path.join(self.work, "update_docs")
        os.makedirs(docs_dir, exist_ok=True)
        pq.write_table(C.documents_table(self.plan.base_docs),
                       os.path.join(docs_dir, "documents.parquet"))
        checkpoint.run_flagship(docs_dir, self.base, num_buckets=NUM_BUCKETS)
        checkpoint.update_flagship(
            self.base, rd.from_arrow(C.pages_table(self.plan.first_pages)),
            num_buckets=NUM_BUCKETS)

    def merge(self, i: int) -> dict:
        import ray.data as rd

        from gitprov_ray import checkpoint

        return checkpoint.update_flagship(
            self.wd, rd.from_arrow(self.batch_tables[i]),
            num_buckets=NUM_BUCKETS)

    def reset(self) -> None:
        shutil.rmtree(self.wd, ignore_errors=True)
        shutil.copytree(self.base, self.wd)

    @property
    def store(self) -> str:
        return os.path.join(self.wd, "triples_store")

    def revisions_rows(self) -> int:
        return pads.dataset(os.path.join(self.wd, "stage=revisions"),
                            format="parquet").count_rows()

    def round(self) -> list[tuple[list[float], int]]:
        self.reset()
        units = []
        for i in range(len(self.batch_tables)):
            res, s = timed(lambda: self.merge(i))
            check(res["new_events"] > 0, "update: batch merged no events")
            units.append(([s], res["triples_written"]))
        before = store_triples(self.store), self.revisions_rows()
        res, s = timed(lambda: self.merge(0))
        units.append(([s], res["triples_written"]))
        self.check(before)
        return units

    def check(self, before) -> None:
        got = store_triples(self.store)
        check(got == self.expected, "update: store differs from the oracle")
        check(store_rows(self.store) == len(self.expected),
              "update: store holds duplicate triples")
        check((got, self.revisions_rows()) == before,
              "update: re-send changed the store or the revisions")


class Query:
    """Read side over a built store: materialized store read, the
    per-graph activity-stats SPARQL through both twins, and the agent
    canonical map."""

    def __init__(self, build: Build):
        self.build = build
        self.expected_used = C.used_per_graph(build.expected)

    def prepare(self) -> None:
        self.build.round()
        self.load()

    def load(self) -> None:
        """Expectations that need the built store: its row count, and the
        canonical map through the engine's driver twin."""
        from gitprov_ray import linking, store

        self.n_triples = store_rows(self.build.store)
        self.expected_canon = linking.canonical_agent_map(
            store.read_store(self.build.store))

    def calls(self):
        """(name, fn) per timed call; each fn takes the materialized
        store (None for the read itself)."""
        from gitprov_ray import linking, sparql_lite, store

        return [
            ("store_read",
             lambda m: store.read_store(self.build.store).materialize()),
            ("sparql_dist",
             lambda m: sparql_lite.select_text_distributed(
                 m, ACTIVITY_STATS).to_pandas()),
            ("sparql_driver",
             lambda m: sparql_lite.select_text(m, ACTIVITY_STATS)),
            ("canon",
             lambda m: linking.canonical_agent_map_ds(m).to_pandas()),
        ]

    def round(self) -> list[tuple[list[float], int]]:
        times, out, m = [], {}, None
        for name, fn in self.calls():
            out[name], s = timed(lambda: fn(m))
            times.append(s)
            if name == "store_read":
                m = out[name]
        self.check(out)
        return [(times, self.n_triples)]

    def check(self, out: dict) -> None:
        check(out["store_read"].count() == self.n_triples,
              "query: store read lost rows")
        dist, drv = out["sparql_dist"], out["sparql_driver"]
        check(frame_rows(dist) == frame_rows(drv),
              "query: distributed SPARQL differs from the driver twin")
        got = {str(g): int(n) for g, n in zip(dist["g"], dist["n_used"])}
        want = {g: n for g, n in self.expected_used.items()}
        check(got == want, "query: activity counts differ from the oracle")
        canon = out["canon"]
        check(dict(zip(canon["agent_uri"], canon["canonical_uri"]))
              == self.expected_canon,
              "query: canonical map differs from the driver twin")
