"""Feature extraction from compressions: count matrices, dictionary
diffusion, DAG export, and summary statistics.

The feature space is the dictionary strings (by candidate id) followed by
the alphabet characters; character feature names are written [c].  The
document matrix counts document-pointer sources per document.  The
dictionary matrix counts each member string's reconstruction sources (its
character rows are zero), so it is nilpotent, and diffusing the document
counts through it terminates exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidParam
from .lp import Compression
from .model import DICT_CHAR, ModelInstance


@dataclass(frozen=True)
class FeatureSpace:
    string_ids: tuple[int, ...]  # candidate ids of dictionary members, ascending
    symbols: tuple[int, ...]  # alphabet symbol ids

    @property
    def size(self) -> int:
        return len(self.string_ids) + len(self.symbols)

    def string_feature(self, cid: int) -> int:
        return self.string_ids.index(cid)

    def char_feature(self, symbol: int) -> int:
        return len(self.string_ids) + self.symbols.index(symbol)

    def names(self, model: ModelInstance) -> list[str]:
        corpus = model.corpus
        out = [corpus.render(model.candidates.strings[cid]) for cid in self.string_ids]
        out.extend(f"[{corpus.table.symbols[s]}]" for s in self.symbols)
        return out


def feature_space(comp: Compression, model: ModelInstance) -> FeatureSpace:
    return FeatureSpace(tuple(sorted(comp.dictionary)),
                        tuple(range(len(model.corpus.table))))


@dataclass
class SparseMatrix:
    """Triplet-style sparse matrix with nonnegative values."""

    n_rows: int
    n_cols: int
    entries: dict[tuple[int, int], float] = field(default_factory=dict)

    def add(self, r: int, c: int, v: float) -> None:
        if v == 0.0:
            return
        key = (r, c)
        cur = self.entries.get(key, 0.0) + v
        if cur == 0.0:
            self.entries.pop(key, None)
        else:
            self.entries[key] = cur

    def get(self, r: int, c: int) -> float:
        return self.entries.get((r, c), 0.0)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols))
        for (r, c), v in self.entries.items():
            out[r, c] = v
        return out

    def copy(self) -> "SparseMatrix":
        return SparseMatrix(self.n_rows, self.n_cols, dict(self.entries))

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.n_cols != other.n_rows:
            raise DimensionMismatch("matrix shapes do not align")
        by_row: dict[int, list[tuple[int, float]]] = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        out = SparseMatrix(self.n_rows, other.n_cols)
        for (r, k), v in self.entries.items():
            for c, w in by_row.get(k, ()):
                out.add(r, c, v * w)
        return out

    def scaled(self, factor: float) -> "SparseMatrix":
        out = SparseMatrix(self.n_rows, self.n_cols)
        for key, v in self.entries.items():
            val = v * factor
            if val != 0.0:
                out.entries[key] = val
        return out


def top_features(comp: Compression, model: ModelInstance,
                 space: FeatureSpace | None = None) -> SparseMatrix:
    """Per-document counts of document-pointer sources (character columns
    stay zero)."""
    space = space or feature_space(comp, model)
    col = {cid: i for i, cid in enumerate(space.string_ids)}
    mat = SparseMatrix(len(model.corpus.docs), space.size)
    for ptr in comp.doc_pointers:
        mat.add(ptr.target, col[ptr.source], 1.0)
    return mat


def dict_matrix(comp: Compression, model: ModelInstance,
                space: FeatureSpace | None = None) -> SparseMatrix:
    """Square reconstruction-count matrix over the feature space: row s
    counts the sources used to rebuild s, with unigram uses recorded on
    the character columns; character rows are zero."""
    space = space or feature_space(comp, model)
    col = {cid: i for i, cid in enumerate(space.string_ids)}
    mat = SparseMatrix(space.size, space.size)
    for ptr in comp.dict_pointers:
        r = col[ptr.target]
        if ptr.kind == DICT_CHAR:
            sym = model.candidates.strings[ptr.source][0]
            mat.add(r, space.char_feature(sym), 1.0)
        else:
            mat.add(r, col[ptr.source], 1.0)
    return mat


def diffuse(top: SparseMatrix, dictionary: SparseMatrix, rho: float = 1.0,
            normalize: list[float] | None = None) -> SparseMatrix:
    """Spread document counts down the dictionary DAG: the result is
    top @ (I + sum_n (rho*G')^n), where G' optionally has each string row
    scaled by 1 / t_s.  Nilpotency makes the series finite, so accumulation
    runs until the increment is exactly empty."""
    if rho < 0:
        raise InvalidParam("rho must be nonnegative")
    if top.n_cols != dictionary.n_rows or dictionary.n_rows != dictionary.n_cols:
        raise DimensionMismatch("feature dimensions do not agree")
    g = dictionary
    if normalize is not None:
        if any(t <= 0 for t in normalize):
            raise InvalidParam("normalization weights must be positive")
        g = SparseMatrix(g.n_rows, g.n_cols)
        for (r, c), v in dictionary.entries.items():
            scale = 1.0 / normalize[r] if r < len(normalize) else 1.0
            g.entries[(r, c)] = v * scale
    acc = top.copy()
    term = top
    guard = 0
    while term.nnz:
        term = term.matmul(g).scaled(rho)
        for key, v in term.entries.items():
            acc.add(key[0], key[1], v)
        guard += 1
        if guard > dictionary.n_rows + 1:
            raise InvalidParam("dictionary matrix is not nilpotent")
    return acc


@dataclass
class DagView:
    """Layered multigraph view of a compression.  Characters sit in layer 0,
    each dictionary string one layer above the deepest string it uses, and
    documents in the top layer."""

    nodes: list[tuple[str, int]]  # ("char", symbol) | ("str", cid) | ("doc", k)
    edges: list[tuple[str, tuple[str, int], tuple[str, int], int]]
    layers: dict[tuple[str, int], int]

    def depth(self) -> int:
        return max((layer for (kind, _), layer in self.layers.items()
                    if kind == "str"), default=0)


CHAR_TO_DICT = "char-dict"
DICT_TO_DICT = "dict-dict"
DICT_TO_DOC = "dict-doc"


def fractional_features(solution, model: ModelInstance, eps: float = 1e-6):
    """Real-valued matrices straight from a relaxation solution, before
    rounding: the feature space is the membership support, document rows
    carry pointer weights, and dictionary rows carry reconstruction
    weights.  Returns (space, top, dictionary, membership weights); files
    written from these should carry a fractional marker in their header."""
    support = tuple(cid for cid in range(len(model.candidates))
                    if solution.string_value(cid) > eps)
    space = FeatureSpace(support, tuple(range(len(model.corpus.table))))
    col = {cid: i for i, cid in enumerate(support)}
    top = SparseMatrix(len(model.corpus.docs), space.size)
    for i, ptr in enumerate(model.doc_pointers):
        w = solution.doc_value(i)
        if w > eps and ptr.source in col:
            top.add(ptr.target, col[ptr.source], w)
    dictionary = SparseMatrix(space.size, space.size)
    for i, ptr in enumerate(model.dict_pointers):
        w = solution.dict_value(i)
        if w <= eps or ptr.target not in col:
            continue
        r = col[ptr.target]
        if ptr.kind == DICT_CHAR:
            sym = model.candidates.strings[ptr.source][0]
            dictionary.add(r, space.char_feature(sym), w)
        else:
            if ptr.source in col:
                dictionary.add(r, col[ptr.source], w)
    weights = [solution.string_value(cid) for cid in support]
    return space, top, dictionary, weights


def dag_export(comp: Compression, model: ModelInstance) -> DagView:
    nodes: list[tuple[str, int]] = [("char", s) for s in range(len(model.corpus.table))]
    nodes.extend(("str", cid) for cid in comp.dictionary)
    nodes.extend(("doc", d.id) for d in model.corpus.docs)
    edges = []
    layers: dict[tuple[str, int], int] = {("char", s): 0
                                          for s in range(len(model.corpus.table))}
    uses: dict[int, list[tuple[str, int]]] = {cid: [] for cid in comp.dictionary}
    for ptr in comp.dict_pointers:
        if ptr.kind == DICT_CHAR:
            sym = model.candidates.strings[ptr.source][0]
            src = ("char", sym)
            edges.append((CHAR_TO_DICT, src, ("str", ptr.target), ptr.location))
        else:
            src = ("str", ptr.source)
            edges.append((DICT_TO_DICT, src, ("str", ptr.target), ptr.location))
        uses[ptr.target].append(src)
    for cid in sorted(comp.dictionary, key=model.candidates.length):
        layers[("str", cid)] = 1 + max((layers[src] for src in uses[cid]), default=0)
    top = 1 + max((layers[("str", cid)] for cid in comp.dictionary), default=0)
    for doc in model.corpus.docs:
        layers[("doc", doc.id)] = top
    for ptr in comp.doc_pointers:
        edges.append((DICT_TO_DOC, ("str", ptr.source), ("doc", ptr.target), ptr.location))
    return DagView(nodes, edges, layers)


def stats(comp: Compression, model: ModelInstance) -> dict:
    """pointer_count, mean n-gram length of document pointers, dictionary
    size, and DAG depth."""
    lengths = [model.candidates.length(p.source) for p in comp.doc_pointers]
    dag = dag_export(comp, model)
    return {
        "pointer_count": len(comp.doc_pointers) + len(comp.dict_pointers),
        "mnl": sum(lengths) / len(lengths) if lengths else 0.0,
        "dict_size": len(comp.dictionary),
        "depth": dag.depth(),
    }


def _format_value(v: float) -> str:
    if v == int(v):
        return str(int(v))
    return repr(v)


def write_matrix(path: str, mat: SparseMatrix, header_lines: list[str]) -> None:
    """Triplet file: comment header, then 'rows cols nnz', then one
    'row col value' triplet per line (0-based)."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(f"{mat.n_rows} {mat.n_cols} {mat.nnz}\n")
        for (r, c) in sorted(mat.entries):
            fh.write(f"{r} {c} {_format_value(mat.entries[(r, c)])}\n")


def read_matrix(path: str) -> SparseMatrix:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    n_rows, n_cols, nnz = (int(x) for x in lines[0].split())
    mat = SparseMatrix(n_rows, n_cols)
    for ln in lines[1:nnz + 1]:
        r, c, v = ln.split()
        mat.entries[(int(r), int(c))] = float(v)
    return mat


def write_names(path: str, names: list[str], header_lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        for name in names:
            fh.write(name + "\n")


def _node_name(node: tuple[str, int], model: ModelInstance) -> str:
    kind, idx = node
    if kind == "char":
        return f"[{model.corpus.table.symbols[idx]}]"
    if kind == "str":
        return model.corpus.render(model.candidates.strings[idx])
    return f"doc:{idx}"


def write_dag(path: str, dag: DagView, model: ModelInstance,
              header_lines: list[str]) -> None:
    """Edge lines 'kind<TAB>source<TAB>target<TAB>location', then a layer
    section 'layer<TAB>node<TAB>index'."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        for kind, src, dst, loc in dag.edges:
            fh.write(f"{kind}\t{_node_name(src, model)}\t{_node_name(dst, model)}\t{loc}\n")
        for node in dag.nodes:
            fh.write(f"layer\t{_node_name(node, model)}\t{dag.layers[node]}\n")
