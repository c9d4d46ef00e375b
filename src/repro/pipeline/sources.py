"""Raw matrix sources: files and synthetic recipes behind one interface.

``repro serve`` (and any other consumer of the feature pipeline) starts
from *sources* — things that resolve to a :class:`~repro.sparse.csr.CSRMatrix`:

* ``.mtx`` / ``.mtx.gz`` — Matrix-Market coordinate files, the SuiteSparse
  distribution format;
* ``.npz`` — CSR archives written by :func:`repro.sparse.io.save_npz` (and
  by the engine's generated-matrix cache tier);
* ``recipe:`` specs — synthetic generator invocations of the form
  ``recipe:power_law_matrix?num_rows=4096&avg_row_length=8&seed=7``, built
  by the :mod:`repro.sparse.generators` functions.

:func:`discover_sources` expands a directory, a manifest file or a single
source into a deterministic (name-sorted) list of :class:`MatrixSource`
records, and :func:`source_digest` gives every source a content digest the
ingest cache keys artifacts by: file sources hash their bytes, recipe
sources hash their canonical spec.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.sparse import generators
from repro.sparse.coo import SparseFormatError
from repro.sparse.csr import CSRMatrix
from repro.sparse.io import load_npz, read_matrix_market

#: Recognised matrix-file suffixes, in discovery order.
MATRIX_SUFFIXES = (".mtx", ".mtx.gz", ".npz")

#: Prefix marking a synthetic-recipe source.
RECIPE_PREFIX = "recipe:"

#: Bytes :func:`source_digest` reads from a file per hash update.
DIGEST_CHUNK_BYTES = 1 << 20


class MatrixSourceError(ValueError):
    """A matrix source cannot be resolved, parsed or built."""


@dataclass(frozen=True)
class MatrixSource:
    """One raw matrix: where it comes from and how to read it.

    ``kind`` is ``"mtx"``, ``"npz"`` or ``"recipe"``; ``location`` is the
    file path (for file kinds) or the canonical recipe spec.
    """

    name: str
    kind: str
    location: str

    def load(self) -> CSRMatrix:
        """Resolve this source into a CSR matrix."""
        return load_source(self)


def recipe_builders() -> tuple:
    """Names of the generator functions a ``recipe:`` spec may invoke."""
    return tuple(
        name
        for name in sorted(dir(generators))
        if name.endswith("_matrix") and not name.startswith("_")
    )


def _parse_param(key: str, text: str, spec: str):
    """One recipe parameter as an int when possible, else a float."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise MatrixSourceError(
            f"recipe {spec!r}: parameter {key}={text!r} is not numeric"
        ) from None


def parse_recipe(spec: str) -> tuple:
    """Split a ``recipe:`` spec into ``(builder, params, seed, name)``.

    The spec grammar is ``recipe:<builder>?key=value&key=value...``; the
    reserved keys ``seed`` (generator seed, default 0) and ``name`` (display
    name) are separated from the builder keyword arguments.
    """
    if not spec.startswith(RECIPE_PREFIX):
        raise MatrixSourceError(f"not a recipe spec: {spec!r}")
    body = spec[len(RECIPE_PREFIX):]
    builder, _, query = body.partition("?")
    builder = builder.strip()
    if builder not in recipe_builders():
        raise MatrixSourceError(
            f"recipe {spec!r}: unknown builder {builder!r}; expected one of "
            f"{', '.join(recipe_builders())}"
        )
    params = {}
    seed = 0
    name = None
    for item in filter(None, query.split("&")):
        key, eq, text = item.partition("=")
        key = key.strip()
        if not eq or not key:
            raise MatrixSourceError(
                f"recipe {spec!r}: malformed parameter {item!r} (want key=value)"
            )
        if key == "name":
            name = text.strip()
        elif key == "seed":
            seed = int(_parse_param(key, text, spec))
        else:
            params[key] = _parse_param(key, text, spec)
    return builder, params, seed, name


def build_recipe(spec: str) -> CSRMatrix:
    """Construct the matrix a ``recipe:`` spec describes."""
    builder_name, params, seed, _ = parse_recipe(spec)
    builder = getattr(generators, builder_name)
    try:
        return builder(rng=np.random.default_rng(seed), **params)
    except TypeError as exc:
        raise MatrixSourceError(f"recipe {spec!r}: {exc}") from None
    except (ValueError, SparseFormatError) as exc:
        raise MatrixSourceError(f"recipe {spec!r}: {exc}") from exc


def _canonical_recipe(spec: str) -> str:
    """Recipe spec with sorted parameters (the digestable canonical form)."""
    builder, params, seed, _ = parse_recipe(spec)
    parts = [f"{key}={params[key]!r}" for key in sorted(params)]
    parts.append(f"seed={seed}")
    return RECIPE_PREFIX + builder + "?" + "&".join(parts)


def _source_kind(path: Path) -> str:
    text = path.name.lower()
    if text.endswith(".mtx") or text.endswith(".mtx.gz"):
        return "mtx"
    if text.endswith(".npz"):
        return "npz"
    raise MatrixSourceError(
        f"{path}: unrecognised matrix file (expected one of "
        f"{', '.join(MATRIX_SUFFIXES)})"
    )


def _source_name(path: Path) -> str:
    name = path.name
    for suffix in (".mtx.gz", ".mtx", ".npz"):
        if name.lower().endswith(suffix):
            return name[: -len(suffix)]
    return path.stem


def source_from_path(path) -> MatrixSource:
    """A :class:`MatrixSource` for one matrix file."""
    path = Path(path)
    return MatrixSource(
        name=_source_name(path), kind=_source_kind(path), location=str(path)
    )


def source_from_recipe(spec: str) -> MatrixSource:
    """A :class:`MatrixSource` for one ``recipe:`` spec (validated)."""
    builder, _, _, name = parse_recipe(spec)
    canonical = _canonical_recipe(spec)
    if name is None:
        digest = hashlib.sha256(canonical.encode()).hexdigest()[:8]
        name = f"{builder}_{digest}"
    return MatrixSource(name=name, kind="recipe", location=canonical)


def resolve_source(source) -> MatrixSource:
    """Coerce a source-ish value (source, path or spec) to a MatrixSource."""
    if isinstance(source, MatrixSource):
        return source
    text = str(source)
    if text.startswith(RECIPE_PREFIX):
        return source_from_recipe(text)
    return source_from_path(text)


def load_source(source) -> CSRMatrix:
    """Resolve any source-ish value into a CSR matrix.

    All failure modes — missing files, malformed Matrix-Market content,
    corrupt ``.npz`` archives, invalid recipes — surface as
    :class:`MatrixSourceError` (Matrix-Market and format errors are
    subclasses of :class:`~repro.sparse.coo.SparseFormatError`, which the
    caller may also catch).
    """
    source = resolve_source(source)
    if source.kind == "recipe":
        return build_recipe(source.location)
    path = Path(source.location)
    if not path.is_file():
        raise MatrixSourceError(f"{path}: no such matrix file")
    if source.kind == "npz":
        return load_npz(path)
    return read_matrix_market(path)


def source_digest(source) -> str:
    """Content digest of one source (what the ingest cache keys by).

    File sources hash their raw bytes — renaming or moving a file keeps its
    cached parse servable, while any content change retires it.  Recipe
    sources hash their canonical spec.
    """
    source = resolve_source(source)
    digest = hashlib.sha256()
    if source.kind == "recipe":
        digest.update(_canonical_recipe(source.location).encode())
    else:
        # Streamed in fixed chunks so a multi-GB file is never held whole.
        path = Path(source.location)
        try:
            with path.open("rb") as handle:
                for chunk in iter(lambda: handle.read(DIGEST_CHUNK_BYTES), b""):
                    digest.update(chunk)
        except OSError as exc:
            raise MatrixSourceError(f"{path}: unreadable ({exc})") from exc
    return digest.hexdigest()[:24]


def _manifest_sources(path: Path) -> list:
    """Sources listed in a manifest file (one path or recipe per line).

    Blank lines and ``#`` comments are skipped; relative paths resolve
    against the manifest's directory.  An optional ``name=...`` recipe
    parameter (or simply distinct file names) keeps entries distinguishable;
    duplicate names are rejected so ``decisions.csv`` rows stay unambiguous.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MatrixSourceError(
            f"{path.name}: not a readable manifest file ({exc})"
        ) from exc
    sources = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if line.startswith(RECIPE_PREFIX):
                sources.append(source_from_recipe(line))
            else:
                entry = Path(line)
                if not entry.is_absolute():
                    entry = path.parent / entry
                sources.append(source_from_path(entry))
        except MatrixSourceError as exc:
            raise MatrixSourceError(f"{path.name}:{lineno}: {exc}") from None
    return sources


def ensure_unique_names(sources) -> list:
    """Reject source lists with clashing names.

    Every serving artifact (``decisions.csv`` rows, suite records) is keyed
    by source name; two sources sharing one would be indistinguishable
    downstream, so discovery and explicit source lists both refuse them.
    """
    seen = {}
    for source in sources:
        if source.name in seen:
            raise MatrixSourceError(
                f"duplicate source name {source.name!r} "
                f"({seen[source.name]} and {source.location}); give recipes "
                f"distinct name= parameters or rename the files"
            )
        seen[source.name] = source.location
    return list(sources)


def discover_sources(target) -> list:
    """Expand a directory, manifest file or single source into sources.

    * a **directory** yields every ``.mtx``/``.mtx.gz``/``.npz`` file in it,
      sorted by file name (deterministic serve order);
    * a **manifest file** (any other text file) yields its listed paths and
      ``recipe:`` specs in file order;
    * a **matrix file** or **recipe spec** yields itself.

    Raises :class:`MatrixSourceError` when nothing is found or names clash.
    """
    if isinstance(target, MatrixSource):
        return [target]
    text = str(target)
    if text.startswith(RECIPE_PREFIX):
        return [source_from_recipe(text)]
    path = Path(text)
    if path.is_dir():
        files = sorted(
            entry
            for entry in path.iterdir()
            if entry.is_file()
            and any(entry.name.lower().endswith(sfx) for sfx in MATRIX_SUFFIXES)
        )
        sources = [source_from_path(entry) for entry in files]
        if not sources:
            raise MatrixSourceError(
                f"{path}: no matrix files "
                f"({', '.join(MATRIX_SUFFIXES)}) found"
            )
    elif path.is_file():
        lowered = path.name.lower()
        if any(lowered.endswith(sfx) for sfx in MATRIX_SUFFIXES):
            sources = [source_from_path(path)]
        else:
            sources = _manifest_sources(path)
            if not sources:
                raise MatrixSourceError(f"{path}: manifest lists no sources")
    else:
        raise MatrixSourceError(f"{path}: no such file or directory")

    return ensure_unique_names(sources)
