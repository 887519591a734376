"""The per-image feature store and its CSV persistence.

A ``FeatureStore`` holds every extracted image as one row of a float64
matrix. Its columns are the tag-free feature names (``original-shape-Volume``
...), written once; its rows are keyed by (lesion_id, role, date). The image
tag of a block (``Plan-mr`` ...) is attached where a feature set is assembled,
so a single dense header serves MR and CT rows alike.

CSV layout: the key columns followed by the feature columns, one row per
image in store order, with csv quoting where a key needs it; a store without
rows writes the key columns alone. Lines starting with ``#`` before the
header carry the embedded run configuration; the first gives a read's
``FeatureStore.settings``. Floats round-trip exactly via ``repr``.

Binary sidecar: next to ``features.csv`` the writer puts ``features.csv.npy``,
four consecutive ``np.save`` records: the CSV's CRC-32 and byte length, the
names, the keys as an (n, 3) ``str`` array, and the float64 matrix, each as
the text parse of that CSV returns it. A read whose CSV has that CRC-32 and
length builds the store from the sidecar (``allow_pickle=False``) and skips
the text parse. A missing, stale, truncated or malformed sidecar, or one whose
store fails validation, is ignored: the text parse runs and reports any error.
A read never writes a sidecar, and deleting one is always safe.
"""

from __future__ import annotations

import csv
import json
import logging
import zlib
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np

from .cohort import FILTER_PREFIXES
from .errors import ConfigError, DataError
from .features import ExtractionConfig

KEY_COLUMNS = ("lesion_id", "role", "date")

ROLE_FOLLOWUP = "followup"
ROLE_PLAN_MR = "planning_mr"
ROLE_PLAN_CT = "planning_ct"

ROLES = (ROLE_FOLLOWUP, ROLE_PLAN_MR, ROLE_PLAN_CT)

log = logging.getLogger(__name__)


class FeatureStore:
    """Feature vectors of many images: row ``k`` of ``values`` is image ``keys[k]``.

    ``names`` are the tag-free feature names, one per column; ``keys`` are
    (lesion_id, role, date_iso) triples. Raises ``DataError`` for duplicate
    names or keys, a name without a filter prefix, or an unknown role.
    """

    def __init__(self, names: list[str], keys: list[tuple[str, str, str]], values: np.ndarray):
        self.names = list(names)
        self.keys = list(keys)
        self.values = np.asarray(values, dtype=np.float64).reshape(len(self.keys), len(self.names))
        self.settings: ExtractionConfig | None = None  # the extraction settings of the table it was read from
        if len(set(self.names)) != len(self.names):
            raise DataError(f"duplicate feature column {_first_duplicate(self.names)!r}")
        bad = [n for n in self.names if not n.startswith(FILTER_PREFIXES)]
        if bad:
            raise DataError(f"feature column {bad[0]!r} does not start with a filter {FILTER_PREFIXES}")
        roles = {key[1] for key in self.keys} - set(ROLES)
        if roles:
            raise DataError(f"unknown role {sorted(roles)[0]!r}")
        self.index = dict(zip(self.keys, range(len(self.keys))))
        if len(self.index) != len(self.keys):
            raise DataError(f"duplicate row for image {_first_duplicate(self.keys)}")

    def __len__(self) -> int:
        return len(self.keys)

    def rows(self, keys: list[tuple[str, str, str]]) -> np.ndarray:
        """Row index of each key, -1 where the store has no such image."""
        return np.array([self.index.get(key, -1) for key in keys], dtype=np.intp)


def _first_duplicate(items: list):
    return next(item for item, count in Counter(items).items() if count > 1)


def write_features_csv(path: str | Path, store: FeatureStore, config_comment: str) -> Path:
    """Write the store's rows in store order (deterministic bytes), and the binary sidecar."""
    path = Path(path)
    names, values = (store.names, store.values) if store.keys else ([], np.empty((0, 0)))
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {config_comment}\n")
        csv.writer(fh, lineterminator="\n").writerow(KEY_COLUMNS + tuple(names))
        # csv quotes the keys where they need it and would write each float as its repr, so the floats
        # (.tolist() gives Python floats) are joined as their repr after the keys and a comma, if any
        key_writer = csv.writer(fh, lineterminator="," if names else "")
        for key, row in zip(store.keys, values.tolist()):
            key_writer.writerow(key)
            fh.write(",".join(map(repr, row)) + "\n")
    keys = np.array(store.keys, dtype=str).reshape(len(store), len(KEY_COLUMNS))
    with _sidecar(path).open("wb") as fh:
        np.save(fh, _digest(path))
        np.save(fh, np.array(names, dtype=str))
        np.save(fh, keys)
        # every NaN is written as "nan", which parses back as the one canonical NaN
        np.save(fh, np.where(np.isnan(values), np.nan, values))
    return path


def _sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".npy")


def _digest(path: Path) -> np.ndarray:
    """CRC-32 and byte length of the file, read in 1 MiB chunks."""
    crc = size = 0
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 20):
            crc = zlib.crc32(chunk, crc)
            size += len(chunk)
    return np.array([crc, size], dtype=np.int64)


def _read_sidecar(path: Path) -> FeatureStore | None:
    """The store that the sidecar of the CSV at ``path`` holds, or None when it is missing, stale,
    malformed or invalid."""
    try:
        with _sidecar(path).open("rb") as fh:
            # np.load's reader of one .npy record: it never unpickles nor opens an archive
            digest = np.lib.format.read_array(fh, allow_pickle=False)
            if digest.dtype != np.int64 or not np.array_equal(digest, _digest(path)):
                return None
            names, keys, values = (np.lib.format.read_array(fh, allow_pickle=False) for _ in range(3))
            if fh.read(1):
                return None
    except (OSError, ValueError, MemoryError):
        return None
    if (names.ndim != 1 or keys.ndim != 2 or names.dtype.kind != "U" or keys.dtype.kind != "U"
            or keys.shape[1] != len(KEY_COLUMNS) or values.dtype != np.float64
            or values.shape != (len(keys), len(names))):
        return None
    try:
        return FeatureStore(names.tolist(), list(map(tuple, keys.tolist())), values)
    except DataError:
        return None


def read_features_csv(path: str | Path) -> FeatureStore:
    """Load a feature CSV written by ``write_features_csv``: from its sidecar when that matches, else
    by the text parse."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"feature CSV not found: {path}")
    if not path.is_file():
        raise DataError(f"feature CSV {path} is not a file")
    store = _read_sidecar(path)
    try:
        if store is None:
            store = _read_store(path)
        with path.open(encoding="utf-8") as fh:
            store.settings = _settings(fh.readline(), path)
    except UnicodeDecodeError as exc:
        raise DataError(f"feature CSV {path} is not UTF-8 text: {exc}") from exc
    return store


def _settings(line: str, path: Path) -> ExtractionConfig | None:
    """The extraction settings that the first ``line`` of the table at ``path`` records. When it does not
    record all four as ``ExtractionConfig`` takes them: None, and one warning that names the table and why."""
    try:
        if not line.startswith("# config: "):
            raise ConfigError("its first line is not a '# config:' line")
        try:
            config = json.loads(line.removeprefix("# config: "))
        except ValueError:
            config = None
        if not isinstance(config, dict):
            raise ConfigError("its '# config:' line is not a JSON object")
        names = [f.name for f in fields(ExtractionConfig)]
        missing = [name for name in names if name not in config]
        if missing:
            raise ConfigError(f"its '# config:' line has no {missing[0]!r}")
        return ExtractionConfig(**{name: config[name] for name in names})
    except ConfigError as exc:  # the reason, or the value that ExtractionConfig refuses
        log.warning("%s records no extraction settings: %s", path, exc)
        return None


def _read_store(path: Path) -> FeatureStore:
    with path.open(encoding="utf-8", newline="") as fh:
        line = fh.readline()
        while line.startswith("#"):
            line = fh.readline()
        if not line:
            raise DataError(f"feature CSV {path} is empty")
        header = next(csv.reader([line]))
        if tuple(header[:3]) != KEY_COLUMNS:
            raise DataError(f"feature CSV {path} must start with columns {KEY_COLUMNS}")
        body = fh.tell()
        values = np.empty((0, len(header)))
        texts: list[str] = []

        def text_index(cell: str) -> int:
            texts.append(cell)
            return len(texts) - 1

        if fh.read(1):
            fh.seek(body)
            try:
                # a key cell parses as its index into texts, so a row of the wrong width still fails here
                values = np.loadtxt(fh, dtype=np.float64, delimiter=",", quotechar='"', comments=None,
                                    converters={k: text_index for k in range(len(KEY_COLUMNS))}, ndmin=2)
            except ValueError as exc:
                fh.seek(body)
                raise _row_error(path, header, csv.reader(fh), exc) from exc
            if values.shape[1] != len(header):
                raise DataError(f"feature CSV {path}: row width {values.shape[1]} != header {len(header)}")
    keys = [tuple(texts[k] for k in row) for row in values[:, : len(KEY_COLUMNS)].astype(np.intp).tolist()]
    try:
        return FeatureStore(header[3:], keys, values[:, len(KEY_COLUMNS) :])
    except DataError as exc:
        raise DataError(f"feature CSV {path}: {exc}") from exc


def _row_error(path: Path, header: list[str], rows, exc: ValueError) -> DataError:
    """Name the first row that the matrix parse rejected."""
    for row in rows:
        if len(row) != len(header):
            return DataError(f"feature CSV {path}: row width {len(row)} != header {len(header)}")
        try:
            [float(v) for v in row[3:]]
        except ValueError as bad:
            return DataError(f"feature CSV {path}: bad value in row {row[:3]} ({bad})")
    return DataError(f"feature CSV {path}: {exc}")
