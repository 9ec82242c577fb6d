"""Seeded, bounded fuzzing of the CLI's failure contract.

Each case hands ``exchtensor evaluate`` a checkpoint with one header
entry mutated or its bytes truncated, or hands ``train`` and
``sample-check`` a ratings file with one malformed line injected.  A
case must either succeed, or exit 2 with exactly one line on stderr,
counting each warning as the line it would print.
"""

import copy
import json
import math
import warnings

import numpy as np
import pytest

from exchtensor.checkpoint import MAGIC, save_checkpoint
from exchtensor.cli import main
from exchtensor.data import FIVE_STAR
from exchtensor.models import ModelConfig, init_params

SEED = 2018
DELETE = object()
REPLACEMENTS = [None, True, -1, 0, 2.5, 10**20, math.nan, "x", [], {}, [1],
                {"x": 1}, DELETE]
HEADER_CASES = 320
LINE_POSITIONS = 6

SMALL = ModelConfig("self-supervised", widths=(4, 5))


def outcome(capsys, argv):
    """(exit code, stderr lines with one per warning) of one CLI run."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except Exception as exc:  # a traceback breaks the contract
            return f"raised {type(exc).__name__}: {exc}", []
    err = capsys.readouterr().err.splitlines()
    return code, err + [str(w.message) for w in caught]


def breaks_contract(code, err) -> bool:
    if code == 0:
        return bool(err)
    return code != 2 or len(err) != 1 or not err[0].startswith("error: ")


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.exchk"
    save_checkpoint(path, SMALL, init_params(SMALL, seed=0), FIVE_STAR)
    return path.read_bytes()


def split_header(raw):
    n = int.from_bytes(raw[8:16], "little")
    return json.loads(raw[16:16 + n]), raw[16 + n:]


def join_header(header, payload):
    blob = json.dumps(header, sort_keys=True).encode()
    return MAGIC + len(blob).to_bytes(8, "little") + blob + payload


def entry_paths(node, path=()):
    """Path of every entry below the header root, containers included."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from entry_paths(child, path + (key,))


def mutated(header, path, value):
    out = copy.deepcopy(header)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def evaluate_outcome(capsys, tmp_path, raw):
    path = tmp_path / "fuzzed.exchk"
    path.write_bytes(raw)
    return outcome(capsys, ["evaluate", str(path), "--data", "synthetic"])


def header_cases(header):
    cases = [(p, v) for p in entry_paths(header) for v in REPLACEMENTS]
    rng = np.random.default_rng(SEED)
    return [cases[k] for k in
            sorted(rng.choice(len(cases), HEADER_CASES, replace=False))]


def test_header_mutations_keep_the_contract(checkpoint_bytes, tmp_path,
                                            capsys):
    header, payload = split_header(checkpoint_bytes)
    broken = []
    for path, value in header_cases(header):
        raw = join_header(mutated(header, path, value), payload)
        code, err = evaluate_outcome(capsys, tmp_path, raw)
        if breaks_contract(code, err):
            broken.append((path, value, code, err))
    assert not broken, broken


@pytest.mark.parametrize("where,value", [
    (("stacks", "layers", 0), "x"),
    (("stacks", "layers", 1), [1]),
    (("arrays", 0, "shape", 0), 10**20),
    (("arrays", 0, "shape"), [math.nan]),
])
def test_malformed_layer_or_shape_exits_2(checkpoint_bytes, tmp_path, capsys,
                                          where, value):
    header, payload = split_header(checkpoint_bytes)
    raw = join_header(mutated(header, where, value), payload)
    code, err = evaluate_outcome(capsys, tmp_path, raw)
    assert code == 2 and len(err) == 1 and "malformed" in err[0], (code, err)


def test_truncated_files_exit_2(checkpoint_bytes, tmp_path, capsys):
    header_end = 16 + int.from_bytes(checkpoint_bytes[8:16], "little")
    n = len(checkpoint_bytes)
    for cut in (n - 1, n - 7, header_end + 3, header_end - 5, 12, 0):
        code, err = evaluate_outcome(capsys, tmp_path, checkpoint_bytes[:cut])
        assert code == 2 and len(err) == 1, (cut, code, err)


def ratings_lines(fmt, rng):
    cells = rng.choice(80, size=40, replace=False)
    stars = rng.integers(1, 6, size=40)
    sep = "\t" if fmt == "movielens-tab" else ","
    return [sep.join([str(c // 10 + 1), str(c % 10 + 1), str(r), "0"])
            for c, r in zip(cells, stars)]


BAD_FIELDS = [
    ["1", "2", "3"], ["1", "2", "3", "0", "9"], ["1", "2", "x", "0"],
    ["1", "2", "", "0"], ["1", "2", "7", "0"], ["1", "2", "0", "0"],
    ["1", "2", "nan", "0"], ["1", "2", "-inf", "0"], ["1", "2", "1e400", "0"],
    ["1", "2", "3.5", "0"], ["1", "2", "3", "nope"], ["1", "2", "3", "1.5"],
    ["", "", "3", "0"], ["1", "2", "3", "9" * 5000], ["1\x002", "2", "3", "0"],
    ["é", "ü", "4", "0"],
]
# "\udcff" is written as the byte 0xff, which is not UTF-8
BAD_LINES = ["1 2 3 0", "1,2,3,0\t", '"1,"2",3', "   ", "\ufeff1,2,3",
             "1\t2\t3\t0\r", "\udcff1,2,3"]


def injected_files(tmp_path):
    rng = np.random.default_rng(SEED)
    for fmt in ("movielens-tab", "csv-triples"):
        sep = "\t" if fmt == "movielens-tab" else ","
        bad = [sep.join(f) for f in BAD_FIELDS] + BAD_LINES + [None]
        for k, line in enumerate(bad):
            for j in range(LINE_POSITIONS):
                lines = ratings_lines(fmt, rng)
                # first line, last line, then seeded inner positions
                at = (0, len(lines))[j] if j < 2 else \
                    int(rng.integers(1, len(lines)))
                # None repeats an existing line: a duplicate rating
                lines.insert(at, lines[-1] if line is None else line)
                path = tmp_path / f"{fmt}-{k}-{j}.data"
                path.write_bytes(("\n".join(lines) + "\n").encode(
                    "utf-8", "surrogateescape"))
                yield fmt, path


def test_malformed_ratings_lines_keep_the_contract(tmp_path, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("widths = 4,5\n")
    broken = []
    runs = 0
    for fmt, path in injected_files(tmp_path):
        common = ["--data", str(path), "--format", fmt]
        for argv in (
            ["train", "--arch", "ss", "--epochs", "1", "--config", str(cfg)],
            ["sample-check", "--trials", "3", "--budget", "5"],
        ):
            code, err = outcome(capsys, argv + common)
            runs += 1
            if breaks_contract(code, err):
                broken.append((path.name, argv[0], code, err))
    assert runs == 2 * 2 * (len(BAD_FIELDS) + len(BAD_LINES) + 1) \
        * LINE_POSITIONS
    assert not broken, broken
