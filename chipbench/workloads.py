"""Job catalogues of the four benchmark workloads.

Every workload is a fixed catalogue of CLI jobs on input files that this
module generates itself (graphs and monomial ideals as text), from
``CATALOGUE_SEED`` and exhaustive enumeration.  ``reference.json`` holds the
digest of each job's answer, recorded once; the per-run ``--seed`` only
orders the catalogue, so every job a run makes has a recorded answer.

Nothing here imports ``chipalg``: the inputs do not depend on the code under
test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, product
from pathlib import Path

#: Seed of the random graphs in the catalogues.  Changing it changes the
#: inputs, so ``reference.json`` must be recorded again.
CATALOGUE_SEED = 20120120

#: Expected size of the sweep enumeration: connected multigraphs on 2, 3 or 4
#: labeled nodes with edge multiplicities at most 2.
SWEEP_GRAPHS = 646


@dataclass(frozen=True)
class Job:
    """One ``chipalg.cli.run`` call.

    ``args`` name input files by their bare file name; the harness prefixes
    the input directory.  ``key`` identifies the job in ``reference.json``.
    """

    args: tuple
    meta: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def key(self) -> str:
        return " ".join(self.args)


@dataclass
class Catalogue:
    files: dict  # file name -> text
    jobs: list   # Job, in catalogue order


# --- graph generation --------------------------------------------------------


def _connected(n, edges) -> bool:
    seen, stack = {1}, [1]
    while stack:
        v = stack.pop()
        for (i, j) in edges:
            for a, b in ((i, j), (j, i)):
                if a == v and b not in seen:
                    seen.add(b)
                    stack.append(b)
    return len(seen) == n


def connected_graphs(n: int, max_mult: int) -> list:
    """Every connected multigraph on nodes 1..n with multiplicities <= max_mult,
    as ``{(i, j): mult}`` dicts in lexicographic order of the multiplicity vector."""
    pairs = list(combinations(range(1, n + 1), 2))
    out = []
    for mults in product(range(max_mult + 1), repeat=len(pairs)):
        edges = {p: m for p, m in zip(pairs, mults) if m}
        if _connected(n, edges):
            out.append(edges)
    return out


def random_saturated(rng: random.Random, n: int, g: int) -> dict:
    """Random complete multigraph of genus g: every pair gets one
    edge, and the remaining edges go to uniformly drawn pairs."""
    pairs = list(combinations(range(1, n + 1), 2))
    mults = [1] * len(pairs)
    for _ in range(g + n - 1 - len(pairs)):
        mults[rng.randrange(len(pairs))] += 1
    return dict(zip(pairs, mults))


def random_connected(rng: random.Random, n: int, max_mult: int) -> dict:
    """Random connected multigraph: a random spanning path plus random edges."""
    nodes = list(range(1, n + 1))
    rng.shuffle(nodes)
    edges = {}
    for a, b in zip(nodes, nodes[1:]):
        edges[(min(a, b), max(a, b))] = rng.randint(1, max_mult)
    for p in combinations(range(1, n + 1), 2):
        if p not in edges and rng.random() < 0.5:
            edges[p] = rng.randint(1, max_mult)
    return edges


def genus(n: int, edges: dict) -> int:
    return sum(edges.values()) - n + 1


def degrees(n: int, edges: dict) -> list:
    deg = [0] * n
    for (i, j), m in edges.items():
        deg[i - 1] += m
        deg[j - 1] += m
    return deg


def graph_text(n: int, edges: dict) -> str:
    lines = [f"nodes {n}"] + [f"edge {i} {j} {m}" for (i, j), m in sorted(edges.items())]
    return "\n".join(lines) + "\n"


def parking_ideal_text(n: int, edges: dict) -> str:
    """Parking ideal of a complete multigraph: for every non-empty I in [n-1],
    the monomial prod_{i in I} x_i^(edges from i to outside I)."""
    mult = {}
    for (i, j), m in edges.items():
        mult[(i, j)] = mult[(j, i)] = m
    lines = [f"vars {n - 1}"]
    for size in range(1, n):
        for I in combinations(range(1, n), size):
            exps = [
                sum(mult.get((i, k), 0) for k in range(1, n + 1) if k not in I) if i in I else 0
                for i in range(1, n)
            ]
            lines.append("gen " + " ".join(map(str, exps)))
    return "\n".join(lines) + "\n"


def _csv(v) -> str:
    return ",".join(map(str, v))


# --- catalogues ----------------------------------------------------------------


def sweep() -> Catalogue:
    """conjecture in chars 0 and 2 on all 646 small connected multigraphs."""
    graphs = [(n, e) for n in (2, 3, 4) for e in connected_graphs(n, 2)]
    if len(graphs) != SWEEP_GRAPHS:
        raise RuntimeError(f"sweep enumeration gave {len(graphs)} graphs, expected {SWEEP_GRAPHS}")
    files, jobs = {}, []
    for k, (n, edges) in enumerate(graphs):
        name = f"s{k:03d}.graph"
        files[name] = graph_text(n, edges)
        for char in (0, 2):
            jobs.append(Job(("conjecture", name, "--char", str(char)), {"nodes": n}))
    return Catalogue(files, jobs)


PRISM = {(1, 2): 1, (2, 3): 1, (1, 3): 1, (4, 5): 1, (5, 6): 1, (4, 6): 1,
         (1, 4): 1, (2, 5): 1, (3, 6): 1}


def betti() -> Catalogue:
    """Betti tables of both ideals in chars 0 and 2, and conjecture, on random
    connected and saturated 5-node graphs; and conjecture, which builds the
    parking and the toppling side, on the prism, which stands in for n = 6."""
    rng = random.Random(CATALOGUE_SEED)
    graphs = [(f"c5_{k}", 5, random_connected(rng, 5, 2)) for k in range(3)]
    graphs += [(f"t5_{k}", 5, random_saturated(rng, 5, g)) for k, g in enumerate((7, 9))]
    files, jobs = {}, []
    for label, n, edges in graphs:
        name = f"{label}.graph"
        files[name] = graph_text(n, edges)
        meta = {"nodes": n, "genus": genus(n, edges)}
        for ideal, char in product(("parking", "toppling"), (0, 2)):
            jobs.append(Job(("betti", name, "--ideal", ideal, "--char", str(char)), meta))
        jobs.append(Job(("conjecture", name), meta))
    files["prism.graph"] = graph_text(6, PRISM)
    jobs.append(Job(("conjecture", "prism.graph"), {"nodes": 6, "genus": genus(6, PRISM)}))
    return Catalogue(files, jobs)


def rank() -> Catalogue:
    """Divisor rank on saturated graphs with n = 5 at genus 15 and 18, for a
    divisor with negative entries, one of degree equal to the genus and the
    canonical divisor K; and with n = 6 at genus 15, for the first and the
    last of these, to keep a pass short."""
    rng = random.Random(CATALOGUE_SEED + 1)
    files, jobs = {}, []
    for n, g in ((5, 15), (5, 18), (6, 15)):
        edges = random_saturated(rng, n, g)
        name = f"r{n}_g{g}.graph"
        files[name] = graph_text(n, edges)
        canonical = [d - 2 for d in degrees(n, edges)]
        near_genus = [g // n + (1 if i < g % n else 0) for i in range(n)]
        negative = [c - 1 if i % 2 else -1 for i, c in enumerate(near_genus)]
        meta = {"nodes": n, "genus": g}
        for d in (negative, near_genus, canonical) if n == 5 else (negative, canonical):
            jobs.append(Job(("rank", name, f"--divisor={_csv(d)}"), meta))
    return Catalogue(files, jobs)


def hilbert_rr() -> Catalogue:
    """ideal and hilbert on saturated graphs with n = 4 and genus 10-24 and
    with n = 5 and genus 10-16; rrcheck and mrank on their parking ideals.
    Many mid-sized jobs rather than a few large ones keep a run's best job
    times steady on a host whose speed drifts."""
    rng = random.Random(CATALOGUE_SEED + 2)
    files, jobs = {}, []
    genera = [(4, g) for g in (10, 12, 14, 16, 18, 20, 22, 24)]
    genera += [(5, g) for g in (10, 11, 12, 12, 13, 14, 14, 15, 16)]
    for k, (n, g) in enumerate(genera):
        edges = random_saturated(rng, n, g)
        base = f"h{k:02d}_n{n}_g{g}"
        files[base + ".graph"] = graph_text(n, edges)
        files[base + ".ideal"] = parking_ideal_text(n, edges)
        ones = [1] * (n - 1)
        near_genus = [g // (n - 1) + (1 if i < g % (n - 1) else 0) for i in range(n - 1)]
        meta = {"nodes": n, "genus": g}
        jobs.append(Job(("ideal", base + ".graph"), meta))
        jobs.append(Job(("hilbert", base + ".graph"), meta))
        jobs.append(Job(("rrcheck", base + ".ideal", "--b", _csv(ones), "--b", _csv(near_genus)), meta))
        jobs.append(Job(("mrank", base + ".ideal", f"--monomial={_csv(near_genus)}"), meta))
    return Catalogue(files, jobs)


def write_inputs(files: dict, directory):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text)


WORKLOADS = {"sweep": sweep, "betti": betti, "rank": rank, "hilbert_rr": hilbert_rr}


def shuffled(jobs: list, seed: int, pass_index: int) -> list:
    """The catalogue in the order of one pass of a run with this seed."""
    order = list(jobs)
    random.Random(f"{seed}/{pass_index}").shuffle(order)
    return order
