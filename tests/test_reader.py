"""The block reader behind load_graph and load_action_log against a per-line
reference: the loops the two loaders ran before they read in blocks. Both
must give the same graph and log, and the same error text, on any file."""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdlim.graph import ActionLog, SocialGraph, _records, load_action_log, load_graph

BLOCK = 1 << 16             # characters the reader asks for per block
FILLER_LINES = 11_000       # "10 20\n" lines: 66,000 characters, past the first block


# --- the per-line reference ------------------------------------------------

def reference_graph(path) -> SocialGraph:
    flat = []
    for lineno, line, parts in _records(path):
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-integer token in {line!r}") from None
        if u < 0 or v < 0:
            raise ValueError(f"{path}:{lineno}: negative node id")
        flat.append(u)
        flat.append(v)
    labels = sorted(set(flat))
    id_of = {lab: i for i, lab in enumerate(labels)}
    ids = [id_of[lab] for lab in flat]
    return SocialGraph(len(labels), zip(ids[::2], ids[1::2]), labels=labels)


def reference_log(path, graph) -> ActionLog:
    id_of = graph._id_of
    tuples = []
    for lineno, line, parts in _records(path):
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'user action time', got {line!r}")
        try:
            u, a, t = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-integer token in {line!r}") from None
        if u not in id_of:
            raise ValueError(f"{path}:{lineno}: unknown user id {u}")
        if t < 0:
            raise ValueError(f"{path}:{lineno}: negative time {t}")
        tuples.append((id_of[u], a, t))
    return ActionLog(tuples)


def _graph_state(g):
    return g.n, g.m, g.dropped_self_loops, g.out_nbrs, g.labels, list(g._id_of.items())


def _log_state(log):
    return ([(a, list(times.items())) for a, times in log.by_action.items()],
            list(log.counts.items()))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


def _same_graph(path):
    got, want = _outcome(load_graph, path), _outcome(reference_graph, path)
    if want[0] == "ok":
        assert got[0] == "ok", got
        assert _graph_state(got[1]) == _graph_state(want[1])
    else:
        assert got == want
    return got


# A graph on labels 0-9 for the logs; users 10 and up are unknown.
LOG_GRAPH = SocialGraph(10, [(u, u + 1) for u in range(9)])


def _same_log(path):
    got, want = _outcome(load_action_log, path, LOG_GRAPH), _outcome(reference_log, path,
                                                                      LOG_GRAPH)
    if want[0] == "ok":
        assert got[0] == "ok", got
        assert _log_state(got[1]) == _log_state(want[1])
    else:
        assert got == want
    return got


def _write(directory, text, name="in.txt"):
    path = os.path.join(directory, name)
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))
    return path


# --- generated files ---------------------------------------------------------

# Every separator is whitespace to str.split; only \n, \r\n and \r end a line
# (\x1c, \x85 and \u2028 end one for str.splitlines, not for a text file).
SEPS = st.sampled_from([" ", "\t", "  ", " \t ", "\x0b", "\x0c", "\x1c", "\x85", "\xa0",
                        "\u2003", "\u2028", "\u3000"])
PAD = st.sampled_from(["", "", " ", "\t", " \t", "\x0c"])
ENDINGS = st.sampled_from(["\n", "\n", "\r\n", "\r"])
GOOD_INTS = st.one_of(st.integers(0, 12).map(str), st.sampled_from(["+3", "007", "1_0"]))
BAD_TOKENS = st.sampled_from(["x", "1.5", "1e3", "--1", "_1", "#2", "0x1"])


def _join(draw, tokens):
    out = draw(PAD) + tokens[0]
    for tok in tokens[1:]:
        out += draw(SEPS) + tok
    return out + draw(PAD)


@st.composite
def good_line(draw, width):
    kind = draw(st.sampled_from(["record"] * 6 + ["comment", "blank"]))
    if kind == "blank":
        return draw(PAD)
    tokens = draw(st.lists(GOOD_INTS, min_size=width, max_size=width))
    if kind == "comment":
        tokens[0] = "#" + draw(st.sampled_from(["", " ", "#", "x"])) + tokens[0]
    return _join(draw, tokens)


@st.composite
def bad_line(draw, width):
    kind = draw(st.sampled_from(["token", "count", "negative", "unknown user"]))
    tokens = draw(st.lists(GOOD_INTS, min_size=width, max_size=width))
    if kind == "token":
        tokens[draw(st.integers(0, width - 1))] = draw(BAD_TOKENS)
    elif kind == "count":
        tokens = tokens[:-1] if draw(st.booleans()) else tokens + ["1"]
    elif kind == "negative":
        tokens[draw(st.integers(0, width - 1)) if width == 2 else 2] = "-1"
    else:
        tokens[0] = str(draw(st.integers(10, 12)))
    return _join(draw, tokens)


@st.composite
def input_file(draw, width):
    lines = draw(st.lists(good_line(width), max_size=25))
    for bad in draw(st.lists(bad_line(width), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), bad)
    endings = [draw(ENDINGS) for _ in lines]
    if endings and draw(st.booleans()):
        endings[-1] = ""
    text = "".join(line + end for line, end in zip(lines, endings))
    if draw(st.booleans()):
        text = ("10 20\n" if width == 2 else "1 7 3\n") * FILLER_LINES + text
    return text


@settings(max_examples=75, deadline=None)
@given(input_file(2))
def test_graph_reader_matches_per_line_reference(text):
    with tempfile.TemporaryDirectory() as d:
        _same_graph(_write(d, text))


@settings(max_examples=75, deadline=None)
@given(input_file(3))
def test_log_reader_matches_per_line_reference(text):
    with tempfile.TemporaryDirectory() as d:
        _same_log(_write(d, text))


# --- fixed cases ---------------------------------------------------------------

def test_comment_with_width_tokens_is_skipped(tmp_path):
    g = _same_graph(_write(tmp_path, "# 1 2\n3 4\n  #5 6\n"))[1]
    assert g.labels == [3, 4] and g.m == 1
    path = _write(tmp_path, "# 0 7 1\n1 7 2\n\t# 2 7 0\n", "a.txt")
    assert _same_log(path)[1].by_action == {7: {1: 2}}


def test_blank_lines_tabs_crlf_and_no_final_newline(tmp_path):
    text = "\r\n  \r\n0\t1\r\n\t\r\n1 \t 2 \r\n# c\r\n2\t\t0"
    g = _same_graph(_write(tmp_path, text))[1]
    assert g.out_nbrs == [[1], [2], [0]]
    text = "\r\n0\t7 1\r\n \t\r\n1 7\t2\r\n2 8 0"
    log = _same_log(_write(tmp_path, text, "a.txt"))[1]
    assert log.by_action == {7: {0: 1, 1: 2}, 8: {2: 0}}


def test_multi_block_file_reads_like_the_reference(tmp_path):
    lines = [f"{i % 997} {(i * 7 + 1) % 1009}" for i in range(30_000)]
    lines[12_345] = "# a comment in the middle of a block"
    text = "\n".join(lines) + "\n"
    assert len(text) > 3 * BLOCK
    _same_graph(_write(tmp_path, text))


@pytest.mark.parametrize("loader, line, message", [
    ("graph", "1 x", "non-integer token in '1 x'"),
    ("graph", "1 2 3", "expected 'u v', got '1 2 3'"),
    ("graph", "4 -2", "negative node id"),
    ("actions", "1 7 z", "non-integer token in '1 7 z'"),
    ("actions", "1 7", "expected 'user action time', got '1 7'"),
    ("actions", "1 7 -4", "negative time -4"),
    ("actions", "42 7 1", "unknown user id 42"),
])
def test_error_after_the_first_block_names_the_absolute_line(tmp_path, loader, line, message):
    filler = "10 20" if loader == "graph" else "1 7 3"
    lines = ["# header", ""] + [filler] * FILLER_LINES + ["  " + line + " ", "0 x 1 2"]
    path = _write(tmp_path, "\n".join(lines) + "\n")
    lineno = FILLER_LINES + 3
    assert len("\n".join(lines[:lineno - 1])) > BLOCK
    with pytest.raises(ValueError) as exc:
        load_graph(path) if loader == "graph" else load_action_log(path, LOG_GRAPH)
    assert str(exc.value) == f"{path}:{lineno}: {message}"
    (_same_graph if loader == "graph" else _same_log)(path)
