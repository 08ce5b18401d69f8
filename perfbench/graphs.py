"""Seeded synthetic link graphs, written as MatrixMarket files.

Every column j of the link matrix Q has exactly OUT_DEGREE entries, each
1/OUT_DEGREE, in distinct rows other than j: Q is column-stochastic with a
uniform out-degree and no self-loops. The same (n, seed) always gives the
same file.

Standalone use, e.g. for a one-off measurement at another size:

    python3 perfbench/graphs.py --n 10000 --seed 1 --out g.mtx
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

OUT_DEGREE = 8


def link_matrix(n: int, seed: int, out_degree: int = OUT_DEGREE):
    """0-based (rows, cols, vals) of Q, sorted by column then row."""
    if not 0 < out_degree < n:
        raise ValueError(f"out-degree {out_degree} needs n > {out_degree}, got {n}")
    rng = np.random.default_rng(seed)
    # Targets are j + offset (mod n) with distinct offsets in 1..n-1, so no
    # column links to itself or twice to one row.
    offsets = np.sort(rng.integers(1, n, size=(n, out_degree)), axis=1)
    while True:
        dup = (np.diff(offsets, axis=1) == 0).any(axis=1)
        if not dup.any():
            break
        offsets[dup] = np.sort(rng.integers(1, n, size=(int(dup.sum()), out_degree)), axis=1)
    cols = np.repeat(np.arange(n, dtype=np.int64), out_degree)
    rows = (cols + offsets.ravel()) % n
    order = np.lexsort((rows, cols))
    vals = np.full(rows.shape[0], 1.0 / out_degree)
    return rows[order], cols[order], vals


def write_matrix_market(path: Path, n: int, rows, cols, vals) -> None:
    """Coordinate real general format, 1-based indices, repr-exact values."""
    body = "\n".join(
        f"{i} {j} {v!r}" for i, j, v in zip((rows + 1).tolist(), (cols + 1).tolist(), vals.tolist())
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{n} {n} {rows.shape[0]}\n")
        fh.write(body + "\n")


def check_file(path: Path, n: int, nnz: int) -> None:
    """Parse the file back independently of the program; every column must sum to 1."""
    lines = Path(path).read_text(encoding="utf-8").split("\n", 2)
    if not lines[0].startswith("%%MatrixMarket") or lines[1].split() != [str(n), str(n), str(nnz)]:
        raise RuntimeError(f"{path}: bad MatrixMarket header")
    body = np.array(lines[2].split(), dtype=np.float64).reshape(-1, 3)
    if body.shape[0] != nnz:
        raise RuntimeError(f"{path}: {body.shape[0]} entries, expected {nnz}")
    rows, cols = body[:, 0].astype(np.int64) - 1, body[:, 1].astype(np.int64) - 1
    if rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n or (rows == cols).any():
        raise RuntimeError(f"{path}: index out of range or self-loop")
    sums = np.bincount(cols, weights=body[:, 2], minlength=n)
    if not np.all(sums == 1.0):
        raise RuntimeError(f"{path}: column {int(np.argmax(sums != 1.0))} does not sum to 1")


def make_graph(path: Path, n: int, seed: int):
    """Write the seeded graph to ``path``, check it, return (rows, cols, vals)."""
    rows, cols, vals = link_matrix(n, seed)
    write_matrix_market(path, n, rows, cols, vals)
    check_file(path, n, rows.shape[0])
    return rows, cols, vals


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    make_graph(args.out, args.n, args.seed)
