"""Feature extraction from compressions: count matrices, dictionary
diffusion, DAG export, and summary statistics.

The feature space is the dictionary strings (by candidate id) followed by
the alphabet characters; character feature names are written [c].  Matrices
are held as row-major coordinate arrays of their nonzeros.  The document
matrix counts document-pointer sources per document.  The dictionary matrix
counts each member string's reconstruction sources (its character rows are
zero), so it is nilpotent: its nonzeros form a DAG, and diffusion spreads
the document counts down that DAG in one pass, layer by layer, with one
matrix product per layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParam, NumericalFailure
from .lp import ROUND_EPS, Compression
from .model import CHAR_CODE, ModelInstance, Pointers


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
    """Sparse matrix in coordinate form: rows, cols and values hold one entry
    per nonzero position, in row-major order.  Build it with from_triplets
    or from_dense, which keep that order."""

    n_rows: int
    n_cols: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @classmethod
    def from_triplets(cls, n_rows: int, n_cols: int, rows, cols, values) -> SparseMatrix:
        """Sum the values given for each position, in input order, and drop
        the positions whose sum is zero."""
        keys = np.asarray(rows, dtype=np.int64) * n_cols + np.asarray(cols, dtype=np.int64)
        positions, inverse = np.unique(keys, return_inverse=True)
        sums = np.bincount(inverse, weights=np.asarray(values, dtype=float),
                           minlength=len(positions))
        kept = sums != 0.0
        positions = positions[kept]
        return cls(n_rows, n_cols, positions // n_cols, positions % n_cols, sums[kept])

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> SparseMatrix:
        rows, cols = np.nonzero(dense)
        return cls(dense.shape[0], dense.shape[1], rows, cols, dense[rows, cols])

    @property
    def nnz(self) -> int:
        return len(self.values)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols))
        out[self.rows, self.cols] = self.values
        return out


def _string_columns(space: FeatureSpace, model: ModelInstance) -> np.ndarray:
    """Per candidate id, its feature column; -1 when it is not a feature."""
    column = np.full(len(model.candidates), -1)
    column[list(space.string_ids)] = np.arange(len(space.string_ids))
    return column


def _source_columns(ptrs: Pointers, space: FeatureSpace, model: ModelInstance) -> np.ndarray:
    """Feature column each pointer's source counts on: a unigram use inside
    the dictionary counts on its character column, any other pointer on its
    source string's column (-1 when that string is not a feature)."""
    char_column = np.full(len(model.corpus.table), -1)
    char_column[list(space.symbols)] = len(space.string_ids) + np.arange(len(space.symbols))
    unigram_column = char_column[[s[0] for s in model.candidates.strings]]
    return np.where(ptrs.kind == CHAR_CODE, unigram_column[ptrs.source],
                    _string_columns(space, model)[ptrs.source])


def _counts(n_rows: int, space: FeatureSpace, rows: np.ndarray,
            cols: np.ndarray) -> SparseMatrix:
    if (rows < 0).any() or (cols < 0).any():
        raise InvalidParam("a pointer refers to a string outside the feature space")
    return SparseMatrix.from_triplets(n_rows, space.size, rows, cols, np.ones(len(rows)))


def top_features(comp: Compression, model: ModelInstance,
                 space: FeatureSpace | None = None) -> SparseMatrix:
    """Per-document counts of document-pointer sources (character columns
    stay zero)."""
    space = space or feature_space(comp, model)
    ptrs = comp.doc_pointers
    return _counts(len(model.corpus.docs), space, ptrs.target,
                   _source_columns(ptrs, space, model))


def dict_matrix(comp: Compression, model: ModelInstance,
                space: FeatureSpace | None = None) -> SparseMatrix:
    """Square reconstruction-count matrix over the feature space: row s
    counts the sources used to rebuild s, with unigram uses recorded on
    the character columns; character rows are zero."""
    space = space or feature_space(comp, model)
    ptrs = comp.dict_pointers
    return _counts(space.size, space, _string_columns(space, model)[ptrs.target],
                   _source_columns(ptrs, space, model))


def diffuse(top: SparseMatrix, dictionary: SparseMatrix, rho: float = 1.0,
            normalize: list[float] | None = None) -> SparseMatrix:
    """Spread document counts down the dictionary DAG: the result solves
    Xhat = top + rho * Xhat @ G', i.e. top @ (I + sum_n (rho*G')^n), where
    G' optionally has each string row scaled by 1 / t_s.  One pass over the
    DAG in topological order: each layer's columns are final once every
    string that uses them is, so a layer costs one matrix product.  A
    dictionary matrix with a cycle leaves some columns unordered and is
    rejected as not nilpotent."""
    if not (rho >= 0 and np.isfinite(rho)):
        raise InvalidParam("rho must be finite and nonnegative")
    if top.n_cols != dictionary.n_rows or dictionary.n_rows != dictionary.n_cols:
        raise DimensionMismatch("feature dimensions do not agree")
    g = dictionary.to_dense()
    if normalize is not None:
        if any(t <= 0 for t in normalize):
            raise InvalidParam("normalization weights must be positive")
        if len(normalize) > g.shape[0] or g[len(normalize):].any():
            raise DimensionMismatch("normalization weights must cover every "
                                    "nonzero dictionary row")
        g[:len(normalize)] *= 1.0 / np.asarray(normalize, dtype=float)[:, None]
    x = top.to_dense()
    uses = g != 0.0
    waiting = uses.sum(axis=0)  # per column: users not yet final
    done = np.zeros(g.shape[0], dtype=bool)
    layer = np.flatnonzero(waiting == 0)
    # an overflow fails the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        while layer.size:
            above = np.flatnonzero(uses[:, layer].any(axis=1))
            if above.size:
                x[:, layer] += rho * (x[:, above] @ g[np.ix_(above, layer)])
            done[layer] = True
            waiting -= uses[layer].sum(axis=0)
            layer = np.flatnonzero((waiting == 0) & ~done)
    if not done.all():
        raise InvalidParam("dictionary matrix is not nilpotent")
    if not np.isfinite(x).all():
        raise NumericalFailure("diffused features are not finite")
    return SparseMatrix.from_dense(x)


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


def fractional_features(solution, model: ModelInstance):
    """Real-valued matrices straight from a relaxation solution, before
    rounding: the feature space is the membership support, document rows
    carry pointer weights, and dictionary rows carry reconstruction
    weights.  Returns (space, top, dictionary, membership weights); files
    written from these should carry a fractional marker in their header."""
    support = tuple(cid for cid in range(len(model.candidates))
                    if solution.string_value(cid) > ROUND_EPS)
    space = FeatureSpace(support, tuple(range(len(model.corpus.table))))
    n_strings, n_docs = len(model.candidates), len(model.doc_pointers)
    docs, dicts = model.doc_pointers, model.dict_pointers
    top = _weighted(len(model.corpus.docs), space.size, docs.target,
                    _source_columns(docs, space, model),
                    solution.values[n_strings:n_strings + n_docs])
    dictionary = _weighted(space.size, space.size, _string_columns(space, model)[dicts.target],
                           _source_columns(dicts, space, model),
                           solution.values[n_strings + n_docs:])
    weights = [solution.string_value(cid) for cid in support]
    return space, top, dictionary, weights


def _weighted(n_rows: int, n_cols: int, rows: np.ndarray, cols: np.ndarray,
              weights: np.ndarray) -> SparseMatrix:
    """Sum the weights that have a row and a column (not -1) and lie above
    ROUND_EPS."""
    kept = (rows >= 0) & (cols >= 0) & (weights > ROUND_EPS)
    return SparseMatrix.from_triplets(n_rows, n_cols, rows[kept], cols[kept], weights[kept])


def string_layers(comp: Compression, model: ModelInstance) -> dict[int, int]:
    """DAG layer of each dictionary string: characters sit in layer 0 and a
    string one layer above the deepest string it uses."""
    uses: dict[int, list[int]] = {cid: [] for cid in comp.dictionary}
    ptrs = comp.dict_pointers
    strings = ptrs.kind != CHAR_CODE
    for target, source in zip(ptrs.target[strings].tolist(), ptrs.source[strings].tolist()):
        uses[target].append(source)
    layers: dict[int, int] = {}
    for cid in sorted(comp.dictionary, key=model.candidates.length):
        layers[cid] = 1 + max((layers[src] for src in uses[cid]), default=0)
    return layers


def dag_export(comp: Compression, model: ModelInstance) -> DagView:
    # every edge refers to its end nodes' tuples rather than copies of them
    chars = [("char", s) for s in range(len(model.corpus.table))]
    strings = {cid: ("str", cid) for cid in comp.dictionary}
    docs = [("doc", d.id) for d in model.corpus.docs]
    nodes = chars + list(strings.values()) + docs
    unigram = [chars[s[0]] for s in model.candidates.strings]
    ptrs = comp.dict_pointers
    edges = [(CHAR_TO_DICT, unigram[source], strings[target], location) if kind == CHAR_CODE
             else (DICT_TO_DICT, strings[source], strings[target], location)
             for kind, target, location, source in zip(
                 ptrs.kind.tolist(), ptrs.target.tolist(), ptrs.location.tolist(),
                 ptrs.source.tolist())]
    layers = dict.fromkeys(chars, 0)
    string_layer = string_layers(comp, model)
    layers.update((strings[cid], layer) for cid, layer in string_layer.items())
    layers.update(dict.fromkeys(docs, 1 + max(string_layer.values(), default=0)))
    ptrs = comp.doc_pointers
    edges.extend((DICT_TO_DOC, strings[source], docs[target], location)
                 for target, location, source in zip(
                     ptrs.target.tolist(), ptrs.location.tolist(), ptrs.source.tolist()))
    return DagView(nodes, edges, layers)


def stats(comp: Compression, model: ModelInstance) -> dict:
    """pointer_count, mean n-gram length of document pointers, dictionary
    size, and DAG depth."""
    n_doc = len(comp.doc_pointers)
    total_length = int(model.candidates.lengths[comp.doc_pointers.source].sum())
    return {
        "pointer_count": n_doc + len(comp.dict_pointers),
        "mnl": total_length / n_doc if n_doc else 0.0,
        "dict_size": len(comp.dictionary),
        "depth": max(string_layers(comp, model).values(), default=0),
    }


def write_matrix(path: str, mat: SparseMatrix, header_lines: list[str]) -> None:
    """Triplet file: comment header, then 'rows cols nnz', then one
    'row col value' triplet per line (0-based).  Integral values are
    written as integers, others as their repr."""
    values = mat.values
    if np.all((np.abs(values) < 2.0 ** 63) & (values == np.floor(values))):
        text = values.astype(np.int64).tolist()
    else:
        text = [int(v) if v.is_integer() else repr(v) for v in values.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(f"{mat.n_rows} {mat.n_cols} {mat.nnz}\n")
        fh.write("".join([f"{r} {c} {v}\n" for r, c, v in
                          zip(mat.rows.tolist(), mat.cols.tolist(), text)]))


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
