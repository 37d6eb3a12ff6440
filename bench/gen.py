"""Instance families and reference answers for the benchmark.

Nothing here imports hedgecut: the inputs and the reference connectivity
must not change when the package does.  Instances are HG1 text with
label names in first-appearance order, which is also the text the
package's own serializer produces for them.
"""

from __future__ import annotations

import itertools

MASK = (1 << 64) - 1


class SplitMix:
    """splitmix64 stream; every random choice of the benchmark draws from one."""

    def __init__(self, seed: int):
        self.state = seed & MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def below(self, k: int) -> int:
        return self.next() % k

    def between(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def derive(seed: int, *tags: int) -> int:
    """A child seed, so each use of one workload seed draws its own stream."""
    rng = SplitMix(seed)
    for tag in tags:
        rng = SplitMix(rng.next() ^ tag)
    return rng.next()


# ---------------------------------------------------------------- graphs

def components(n: int, pairs) -> list[int]:
    """Union-find root of every vertex under the given (u, v) pairs."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return [find(v) for v in range(n)]


def connected_without(n: int, edges, removed: set) -> bool:
    roots = components(n, ((u, v) for u, v, lab in edges if lab not in removed))
    return len(set(roots)) == 1


def to_hg1(n: int, edges) -> str:
    return "".join([f"HG1 {n} {len(edges)}\n"] + [f"{u} {v} {lab}\n" for u, v, lab in edges])


def parse_hg1(text: str) -> tuple[int, list[tuple[int, int, str]]]:
    lines = text.splitlines()
    n = int(lines[0].split()[1])
    edges = []
    for line in lines[1:]:
        u, v, lab = line.split()
        edges.append((int(u), int(v), lab))
    return n, edges


def label_order(edges) -> list[str]:
    return list(dict.fromkeys(lab for _, _, lab in edges))


def min_label_degree(n: int, edges) -> int:
    seen = [set() for _ in range(n)]
    for u, v, lab in edges:
        seen[u].add(lab)
        seen[v].add(lab)
    return min(len(s) for s in seen)


def enumerate_cut(n: int, edges, limit: int | None = None) -> tuple[int, int]:
    """(lambda, subsets tried) by enumeration in first-appearance label order.

    Subsets are visited smallest first and lexicographically within one
    size, so the count is the work an enumerating solver does before it
    meets the first minimum cut.
    """
    labels = label_order(edges)
    tried = 0
    for k in range(1, len(labels) + 1):
        for combo in itertools.combinations(labels, k):
            tried += 1
            if not connected_without(n, edges, set(combo)):
                return k, tried
            if limit is not None and tried >= limit:
                return -1, tried
    raise ValueError("no hedge cut: fewer than two vertices")


# ------------------------------------------------------------- families

def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _spanning_trees(rng: SplitMix, verts: list[int], count: int, used: set) -> list[list[tuple[int, int]]]:
    """``count`` pairwise edge-disjoint random spanning trees avoiding ``used``."""
    for _attempt in range(1000):
        taken = set(used)
        trees = []
        for _ in range(count):
            order = list(verts)
            rng.shuffle(order)
            tree: list[tuple[int, int]] = []
            for i in range(1, len(order)):
                options = [p for p in (_pair(u, order[i]) for u in order[:i]) if p not in taken]
                if not options:
                    break
                tree.append(options[rng.below(len(options))])
                taken.add(tree[-1])
            else:
                trees.append(tree)
                continue
            break
        else:
            used.update(taken)
            return trees
    raise ValueError("could not place edge-disjoint spanning trees")


def _finish(rng: SplitMix, n: int, edges: list[tuple[int, int, object]]) -> tuple[int, list[tuple[int, int, str]]]:
    """Shuffle edge order and orientation, then name labels by first appearance."""
    edges = list(edges)
    rng.shuffle(edges)
    names: dict[object, str] = {}
    out = []
    for u, v, key in edges:
        if rng.below(2):
            u, v = v, u
        out.append((u, v, names.setdefault(key, f"h{len(names)}")))
    return n, out


def planted(rng: SplitMix, halves: tuple[int, int], trees: int, tree_labels: list[int],
            cross: int, extra_pct: int = 0, singleton: bool = False) -> tuple[int, list]:
    """Two halves of ``trees`` edge-disjoint spanning trees joined by ``cross`` labels.

    Removing fewer than ``trees`` labels leaves a whole tree in each half,
    so with ``cross < trees`` the connectivity is exactly ``cross`` and
    every vertex meets at least ``trees`` labels.  ``tree_labels[i]``
    splits tree i (in both halves) into that many labels; ``singleton``
    gives every edge its own label instead.  Extra edges inside a half
    reuse that half's labels, so they never lower the connectivity.
    """
    n = halves[0] + halves[1]
    perm = list(range(n))
    rng.shuffle(perm)
    sides = [perm[:halves[0]], perm[halves[0]:]]
    used: set = set()
    edges: list[tuple[int, int, object]] = []
    for h, verts in enumerate(sides):
        half_labels = []
        for t, tree in enumerate(_spanning_trees(rng, verts, trees, used)):
            rng.shuffle(tree)
            for j, (u, v) in enumerate(tree):
                key = ("e", len(edges)) if singleton else (h, t, j % tree_labels[t])
                half_labels.append(key)
                edges.append((u, v, key))
        for u, v in itertools.combinations(sorted(verts), 2):
            if (u, v) not in used and rng.below(100) < extra_pct:
                used.add((u, v))
                key = ("e", len(edges)) if singleton else half_labels[rng.below(len(half_labels))]
                edges.append((u, v, key))
    for c in range(cross):
        for _ in range(1 if singleton else rng.between(1, 3)):
            while True:
                p = _pair(sides[0][rng.below(len(sides[0]))], sides[1][rng.below(len(sides[1]))])
                if p not in used:
                    break
            used.add(p)
            edges.append((p[0], p[1], ("e", len(edges)) if singleton else ("x", c)))
    return _finish(rng, n, edges)


def small_random(rng: SplitMix, n_range: tuple[int, int], extra_range: tuple[int, int],
                 label_range: tuple[int, int]) -> tuple[int, list]:
    """Random connected simple instance: a random tree, extra edges, every label used."""
    n = rng.between(*n_range)
    pairs = []
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        pairs.append(_pair(order[rng.below(i)], order[i]))
    free = [p for p in itertools.combinations(range(n), 2) if p not in set(pairs)]
    rng.shuffle(free)
    pairs += free[:rng.between(*extra_range)]
    count = rng.between(label_range[0], min(label_range[1], len(pairs)))
    labels = list(range(count)) + [rng.below(count) for _ in range(len(pairs) - count)]
    rng.shuffle(labels)
    return _finish(rng, n, [(u, v, lab) for (u, v), lab in zip(pairs, labels)])
