"""Every verb on every input it reads, corrupted: exit 0, 2 or 3 and one line.

Each case runs ``eitkit.cli.main`` in-process at a tiny config (64 inverse
and 256 forward elements, a 16-pixel raster) on one corrupted copy of a
valid input: the config, the phantom document, a ``--data`` voltage file,
a ``--field`` or ``--reference`` element file, or the ``iterates.txt``
history that ``evaluate`` reads through ``--result``. The verb must return
0, 2 or 3, raise nothing, and write at most one stderr line, where every
Python warning raised during the case counts as a line.

An edit is a tuple. On any file: ``("truncate", i)``, ``("flip", i, byte)``
and ``("insert", i, raw)`` at byte i modulo the length. On a JSON document:
``("set", path, value)`` and ``("drop", path)``, where a path step names a
key or picks an item by index modulo the length (an object's keys in
sorted order), the last step acts where a step first leads nowhere, an
empty path is the whole document, and a ``Raw`` value is spliced in as
it is. On
a frame file: ``("cell", i, token)`` replaces the last cell of line i,
``("line", i, text)`` replaces line i and ``("insert_line", i, text)`` adds
one before it, ``("cut", i, n)`` deletes n lines from line i,
``("frames", k)`` repeats the first frame as k numbered frames and
``("scale", factor)`` multiplies every value. Named examples, each with
the exit code it must give (one stderr line unless 0), pin the cases that
were found and fixed one at a time.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from eitkit.cli import main
from eitkit.pipeline import PipelineConfig

TINY = dict(inverse_elements=64, forward_elements=256, raster_resolution=16,
            profile_rows=[3, 8, 12])

VERBS = ("mesh", "simulate", "reconstruct", "evaluate", "sweep", "render")

# input kind: (its valid file under the base directory, the verbs that read it)
KINDS = {
    "config": ("run.cfg", VERBS),
    "phantom_file": ("out/phantom.json", ("mesh", "simulate", "evaluate", "sweep")),
    "--data": ("out/dv_noisy.txt", ("reconstruct", "sweep")),
    "--field": ("out/delta_sigma.txt", ("render",)),
    "--reference": ("out/delta_sigma_true.txt", ("evaluate",)),
    "--result": ("out/iterates.txt", ("evaluate",)),
}


class Raw(str):
    """JSON text spliced into a document as it is."""


EXTREMES = [1e308, -1e308, 1e200, -1e200, 1e-200, 1e-320, -1e-320, 10**400, -(10**400),
            0, -1, 1, 2, 0.5, math.nan, math.inf, -math.inf]
TOKENS = ["nan", "inf", "-inf", "1e999", "1e308", "-1e308", "1e-320", "1" + "0" * 400,
          "true", "", "x", "1 2", "0x10", "\ufffd"]

positions = st.integers(0, 1 << 16)
byte_edits = st.one_of(
    st.tuples(st.just("truncate"), positions),
    st.tuples(st.just("flip"), positions, st.integers(0, 255)),
    st.tuples(st.just("insert"), positions, st.sampled_from([b"\xff", b"\xc3(", b"\x00", b"\xe2\x82"])),
)
json_values = st.one_of(
    st.sampled_from(EXTREMES), st.booleans(), st.none(), st.sampled_from(["", "x", "inf", "7"]),
    st.lists(st.sampled_from(EXTREMES), max_size=3), st.sampled_from([{}, {"a": 1}]),
    st.sampled_from([Raw("1" + "0" * 5000), Raw("1e999"), Raw("-0"), Raw("[" * 100000 + "]" * 100000)]),
)
json_paths = st.lists(st.one_of(st.integers(0, 30), st.just("note")), min_size=1, max_size=4).map(tuple)
json_edits = st.one_of(
    byte_edits,
    st.tuples(st.just("set"), json_paths, json_values),
    st.tuples(st.just("drop"), json_paths),
)
frame_edits = st.one_of(
    byte_edits,
    st.tuples(st.just("cell"), positions, st.sampled_from(TOKENS)),
    st.tuples(st.just("line"), positions,
              st.sampled_from(["", "# frame 1 0", "# frame 2 1", "# frame 1 99999999999999999999",
                               "# frame 1 -1", "# frame 1", "1 2 3 4", "1.0"])),
    st.tuples(st.just("insert_line"), positions, st.sampled_from(["0.0", "1 3 0.5", "", "# frame 2 1"])),
    st.tuples(st.just("cut"), positions, st.integers(1, 3)),
    st.tuples(st.just("frames"), st.integers(0, 3)),
    st.tuples(st.just("scale"), st.sampled_from([1e300, 1e-300, 1e308, 1e153, -1.0, 0.0])),
)


def _inclusion(scale: float, value: float = 2.0) -> dict:
    """A phantom document's circle of radius ``scale`` at the center."""
    return {"center": [0.0, 0.0], "axis_a": [scale, 0.0], "axis_b": [0.0, scale], "value": value}


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> Path:
    """A directory with a valid input of every kind: the tiny config
    ``run.cfg`` with every field spelled out, and under ``out/`` what mesh,
    simulate and reconstruct wrote from it."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = dataclasses.asdict(PipelineConfig(**TINY, out_dir=str(root / "out")))
    (root / "run.cfg").write_text(json.dumps(cfg))
    for verb in ("mesh", "simulate", "reconstruct"):
        assert main([verb, "--config", str(root / "run.cfg")]) == 0
    return root


def _step(node, step):
    """The key or index that a path step picks in ``node``, or None."""
    if isinstance(node, dict):
        return step if isinstance(step, str) else (sorted(node)[step % len(node)] if node else None)
    if isinstance(node, list) and node:
        return step % len(node) if isinstance(step, int) else None
    return None


def _edit_json(data: bytes, edit) -> bytes:
    if not edit[1]:
        return json.dumps(edit[2]).encode()
    doc = json.loads(data)
    *parents, last = edit[1]
    node = doc
    for step in parents:
        key = _step(node, step)
        if key is None or key not in (node if isinstance(node, dict) else range(len(node))):
            break
        node = node[key]
    key = _step(node, last)
    if key is None:
        return data
    if edit[0] == "drop":
        node.pop(key, None) if isinstance(node, dict) else node.pop(key)
        return json.dumps(doc).encode()
    value = edit[2]
    node[key] = "\x00raw\x00" if isinstance(value, Raw) else value
    return json.dumps(doc).replace('"\\u0000raw\\u0000"', str(value)).encode()


def _edit_frames(data: bytes, edit) -> bytes:
    lines = data.decode().splitlines()
    op, *args = edit
    if op == "cell":
        i = args[0] % len(lines)
        lines[i] = " ".join([*lines[i].split()[:-1], args[1]])
    elif op == "line":
        lines[args[0] % len(lines)] = args[1]
    elif op == "insert_line":
        lines.insert(args[0] % (len(lines) + 1), args[1])
    elif op == "cut":
        i = args[0] % len(lines)
        del lines[i:i + args[1]]
    elif op == "frames":
        rows = int(lines[0].split()[3])
        body = lines[1:1 + rows]
        lines = [line for t in range(1, args[0] + 1) for line in (f"# frame {t} {rows}", *body)]
    elif op == "scale":
        lines = [line if line.startswith("#") else
                 " ".join([*line.split()[:-1], repr(float(line.split()[-1]) * args[0])])
                 for line in lines]
    return ("\n".join(lines) + "\n").encode() if lines else b""


def _edit(data: bytes, edit) -> bytes:
    op = edit[0]
    if op in ("truncate", "flip", "insert"):
        i = edit[1] % (len(data) + 1)
        if op == "truncate":
            return data[:i]
        if op == "flip":
            return data[:i] + bytes([edit[2]]) + data[i + 1:]
        return data[:i] + edit[2] + data[i:]
    return (_edit_json if op in ("set", "drop") else _edit_frames)(data, edit)


@contextlib.contextmanager
def _working_directory(path):
    """``contextlib.chdir``, which Python 3.10 does not have."""
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(cwd)


def _run_case(base: Path, kind: str, verb: str, edit) -> tuple[int, list[str]]:
    """The exit code of ``verb`` on the base inputs, with ``kind``'s input
    replaced by its copy under ``edit``, and its stderr lines followed by
    one line per warning raised. The verb runs in a fresh directory, which
    is also its working directory."""
    with tempfile.TemporaryDirectory() as tmp, _working_directory(tmp):
        tmp = Path(tmp)
        source = base / KINDS[kind][0]
        target = tmp / source.name
        cfg = json.loads((base / "run.cfg").read_text()) | {"out_dir": str(tmp / "out")}
        if kind == "phantom_file":
            cfg.update(phantom_model=None, phantom_file=str(target))
        (tmp / "run.cfg").write_text(json.dumps(cfg))
        target.write_bytes(_edit(target.read_bytes() if kind == "config" else source.read_bytes(), edit))
        flags = {"reconstruct": {"--data": base / "out" / "dv_noisy.txt"},
                 "evaluate": {"--result": base / "out"},
                 "render": {"--field": base / "out" / "delta_sigma.txt"}}.get(verb, {})
        if kind.startswith("--"):
            flags[kind] = tmp if kind == "--result" else target
        args = [arg for flag, path in flags.items() for arg in (flag, str(path))]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main([verb, "--config", str(tmp / "run.cfg"), *args])
    return code, err.getvalue().splitlines() + [f"{w.category.__name__}: {w.message}" for w in caught]


def _check(base, kind, verb, edit, expect):
    code, lines = _run_case(base, kind, verb, edit)
    assert code in (0, 2, 3) and len(lines) <= 1, (code, lines)
    if expect is not None:
        assert (code, len(lines)) == (expect, int(expect != 0)), (code, lines)


@settings(max_examples=400)
@given(verb=st.sampled_from(VERBS), edit=json_edits, expect=st.none())
# was TestCli::test_config_integer_of_5001_digits_exit_two
@example(verb="mesh", edit=("set", ("inverse_elements",), Raw("1" + "0" * 5000)), expect=2)
# was TestCli::test_config_not_utf8_exit_two
@example(verb="mesh", edit=("insert", 0, b"\xff\xfe"), expect=2)
# regression: an element index past the 54 inverse elements passed mesh
@example(verb="mesh", edit=("set", ("mask_elements",), [5000]), expect=2)
# regression: noise past the float range was a traceback
@example(verb="simulate", edit=("set", ("snr_db",), -1e308), expect=2)
# regression: an snr_db past the float range was a traceback
@example(verb="simulate", edit=("set", ("snr_db",), 10**400), expect=2)
# regression: JSON nested past the interpreter's stack was a traceback
@example(verb="mesh", edit=("set", ("lam",), Raw("[" * 100000 + "]" * 100000)), expect=2)
# regression: a rho past the x-update's constant-mode bound ran (here 1 gave
# a data residual of 0.96), and 1e308 through a special case
@example(verb="sweep", edit=("set", ("rho",), 1), expect=2)
@example(verb="reconstruct", edit=("set", ("rho",), 1e308), expect=2)
# the config checks that no other case reached: a document that is not an
# object, an snr_db string that names no number, and empty or zero sweep grids
@example(verb="mesh", edit=("set", (), []), expect=2)
@example(verb="mesh", edit=("set", ("snr_db",), "abc"), expect=2)
@example(verb="mesh", edit=("set", ("sweep_lambda_over_rho",), []), expect=2)
@example(verb="mesh", edit=("set", ("sweep_delta",), [0.0]), expect=2)
def test_config_document(base, verb, edit, expect):
    _check(base, "config", verb, edit, expect)


@settings(max_examples=250)
@given(verb=st.sampled_from(KINDS["phantom_file"][1]), edit=json_edits, expect=st.none())
# regression: mesh took a bool as a number
@example(verb="mesh", edit=("set", ("inclusions", 0, "value"), True), expect=2)
# regression: mesh took a bool as a list item
@example(verb="mesh", edit=("set", ("inclusions", 0, "center", 0), False), expect=2)
# regression: mesh took an unknown key
@example(verb="mesh", edit=("set", ("note",), "x"), expect=2)
# regression: axes of 1e200 were refused as dependent, their determinant overflowed
@example(verb="mesh", edit=("set", ("inclusions", 0), _inclusion(1e200)), expect=0)
# regression: axes of 1e-200 were refused as dependent, their determinant underflowed
@example(verb="mesh", edit=("set", ("inclusions", 0), _inclusion(1e-200)), expect=0)
# regression: S^T b past the float range printed numpy warnings
@example(verb="sweep", edit=("set", (), {"background": 1e-300, "inclusions": [_inclusion(0.05, 1e300)]}),
         expect=0)
# regression: a stiffness matrix past the float range printed numpy warnings
@example(verb="simulate", edit=("set", ("background",), 1e308), expect=3)
def test_phantom_document(base, verb, edit, expect):
    _check(base, "phantom_file", verb, edit, expect)


@settings(max_examples=400)
@given(case=st.sampled_from([(k, v) for k in list(KINDS)[2:] for v in KINDS[k][1]]),
       edit=frame_edits, expect=st.none())
# was TestCli::test_empty_data_file_exit_two
@example(case=("--data", "reconstruct"), edit=("truncate", 0), expect=2)
# regression, both: data past the x-update's float range printed numpy warnings
@example(case=("--data", "reconstruct"), edit=("scale", 1e300), expect=3)
@example(case=("--data", "sweep"), edit=("scale", 1e300), expect=0)
@example(case=("--data", "reconstruct"), edit=("frames", 2), expect=2)
@example(case=("--field", "render"), edit=("cut", 5, 1), expect=2)
@example(case=("--reference", "evaluate"), edit=("frames", 2), expect=2)
@example(case=("--result", "evaluate"), edit=("frames", 3), expect=0)
def test_frame_file(base, case, edit, expect):
    _check(base, *case, edit, expect)
