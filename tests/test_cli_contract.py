"""The CLI's exit-code contract under hostile input.

Every ``cli.main`` run ends in 0 (success), 2 (usage error) or 3 (data
error), with no exception escaping and no warning, whatever the sample
table, partition file, config file and flags hold. Valid numbers are kept
small, so no drawn run can legitimately diverge (exit 4).
"""
import contextlib
import io
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from dualsift import NoiseKind, NoiseSpec, SyntheticSpec, generate_synthetic, inject_noise
from dualsift.cli import DISTILL_DEFAULTS, GENERATE_DEFAULTS, TRAIN_DEFAULTS, main
from dualsift.data import write_sample_table

# a drawn value is broken one time in four, at the edge of its range one
# time in eight; valid numbers stay small
BROKEN = ["", " ", "x", "-1", "1_0", "\u0663", "1e999", "0x1", "1,5", "nan", "inf", "-inf",
          "sym:2", "sym:nan", "percentile:-1", "fixed", "noise:"]
EDGE = {int: ["0", "-0"], float: ["0", "1e-400", "1"], "noise": ["sym:0", "asym:1"],
        str: ["fixed:1", "percentile:0", "noise:1"]}
VALID = {int: ["1", "2", "9"], float: ["0.01", "0.3"], "noise": ["none", "sym:0.3", "asym:0.6"],
         str: ["fixed:0.5", "noise:0.4", "percentile:0.3"]}
DEFAULTS = {"generate": GENERATE_DEFAULTS, "distill": DISTILL_DEFAULTS,
            "train": TRAIN_DEFAULTS, "evaluate": {}}
TOKENS = [b"", b"x", b"nan", b"inf", b"-1", b"1e999", b"1_0", b"\xd9\xa3", b"\xff", b"\x00",
          b"\r", b"\xef\xbb\xbf", b",", b"\n", b"P", b"DROPPED", b"9223372036854775808"]


def _table_bytes() -> bytes:
    dataset = inject_noise(generate_synthetic(SyntheticSpec(k=3, d=2, n=30, seed=4)),
                           NoiseSpec(NoiseKind.SYMMETRIC, 0.3, seed=4))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_sample_table(dataset, path)
        return path.read_bytes()


TABLE = _table_bytes()
PARTITION = b"".join(b"%d,%s\n" % (i, b"PNUC"[i % 4:i % 4 + 1]) for i in range(30))


@st.composite
def hostile(draw, text: bytes) -> bytes:
    """``text`` as it is, or with one line, cell or byte span broken."""
    lines = text.splitlines(keepends=True)
    op = draw(st.sampled_from(["keep", "cell", "drop", "repeat", "cut", "insert", "empty"]))
    at = draw(st.integers(0, len(lines) - 1))
    if op == "cell":
        cells = lines[at].rstrip(b"\n").split(b",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(TOKENS))
        lines[at] = b",".join(cells) + b"\n"
    elif op == "drop":
        del lines[at]
    elif op == "repeat":
        lines.insert(at, lines[at])
    text = b"".join(lines)
    cut = draw(st.integers(0, len(text)))
    if op == "cut":
        return text[:cut]
    if op == "insert":
        return text[:cut] + draw(st.sampled_from(TOKENS)) + text[cut:]
    return b"" if op == "empty" else text


@st.composite
def settings_for(draw, command: str) -> tuple[list[str], list[str]]:
    """(flags, config-file lines) with keys of ``command``, or now and then
    an unknown key or a line that is no ``key = value``."""
    defaults = DEFAULTS[command]
    keys = st.sampled_from(sorted(defaults) * 4 + ["bogus"]) if defaults else st.just("bogus")

    def pair():
        key = draw(keys)
        kind = "noise" if key == "noise" else type(defaults.get(key, ""))
        pool = draw(st.sampled_from([VALID[kind]] * 5 + [EDGE[kind], BROKEN, BROKEN]))
        return key, draw(st.sampled_from(pool))

    flags = []
    for _ in range(draw(st.integers(0, 3 if defaults else 0))):
        key, value = pair()
        flags += ["--" + key.replace("_", "-"), value]
    if not defaults:
        return flags + draw(st.sampled_from([[]] * 9 + [["--bogus"]])), []
    lines = [f"{key} = {value}" for key, value in (pair() for _ in range(draw(st.integers(0, 2))))]
    lines += draw(st.sampled_from([[]] * 9 + [["="], ["no equals sign"], ["[section]"],
                                              ["# note"], ["n = 1 = 2"], [" = 3"]]))
    return flags, lines


@st.composite
def runs(draw) -> tuple[list[str], dict[str, bytes]]:
    """An argv, with the files its paths name."""
    command = draw(st.sampled_from(sorted(DEFAULTS)))
    flags, lines = draw(settings_for(command))
    files = {"table.csv": draw(hostile(TABLE)), "partition.csv": draw(hostile(PARTITION))}
    if lines:
        files["run.cfg"] = "\n".join(lines).encode()
        flags += ["--config", "run.cfg"]
    argv = {
        "generate": ["generate", "-o", "out.csv"],
        "distill": ["distill", "table.csv", "-o", "out"],
        # one short round keeps a run fast; a drawn flag may override either
        "train": ["train", "table.csv", "-o", "out", "--warmup-epochs", "1", "--rounds", "1"],
        "evaluate": ["evaluate", "partition.csv", "table.csv"],
    }[command]
    return argv + flags, files


@settings(max_examples=100, deadline=None)
@given(run=runs())
def test_hostile_input_exits_0_2_or_3_without_warning(run):
    argv, files = run
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            (Path(tmp) / name).write_bytes(data)
        # the paths argv names, outputs included, all lie in tmp
        argv = [str(Path(tmp) / arg) if arg in files or arg.startswith("out") else arg
                for arg in argv]
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
    assert code in (0, 2, 3), (argv, files, err.getvalue())
    assert code == 0 or "error" in err.getvalue()
