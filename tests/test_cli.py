"""End-to-end runs of the command line entry point."""

import dataclasses
import hashlib
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpora import argand_corpus, hyperbolic_corpus, polar_corpus, rational_corpus
from roundreach import argand_decider, cli, hyperbolic, system as system_module
from roundreach.cli import dispatch, main, parse_instance, serialize_instance, verdict_json
from roundreach.numerics import Angle
from roundreach.qbf_compiler import GadgetFamily
from roundreach.rounding import (
    ArgandPoint,
    ArgandRounding,
    PolarPoint,
    PolarRounding,
    RoundingKind,
)
from roundreach.system import JnfSystem, JordanBlock, RationalSystem


def polar_example() -> JnfSystem:
    blocks = (JordanBlock(2, Fraction(1), Angle(Fraction(1, 2))),)
    return JnfSystem(
        blocks,
        (PolarPoint(Fraction(5), 0), PolarPoint(Fraction(4), 0)),
        (PolarPoint(Fraction(5), 0), PolarPoint(Fraction(4), 0)),
        PolarRounding(RoundingKind.MINIMAL_ERROR_UP, 2),
    )


def rational_example() -> RationalSystem:
    half = Fraction(1, 2)
    return RationalSystem(
        ((half, Fraction(0)), (Fraction(0), half)),
        (Fraction(9), Fraction(7)),
        (Fraction(0), Fraction(0)),
        ArgandRounding(RoundingKind.FLOOR),
    )


def truncation_example() -> JnfSystem:
    blocks = (JordanBlock(1, Fraction(1), Angle(Fraction(1, 4))),)
    return JnfSystem(
        blocks,
        (ArgandPoint(Fraction(3), Fraction(0)),),
        (ArgandPoint(Fraction(0), Fraction(0)),),
        ArgandRounding(RoundingKind.TRUNCATE),
    )


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_serialize_parse_round_trip():
    for system in (polar_example(), rational_example(), truncation_example()):
        text = serialize_instance(system)
        again = parse_instance(text)
        assert again == system
        assert serialize_instance(again) == text


def test_decide_reached_exit_zero(tmp_path, capsys):
    path = write(tmp_path, "inst.json", serialize_instance(polar_example()))
    assert main(["decide", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "reached"
    assert out["step"] == 0
    assert "witness" in out


def test_decide_polar_instance_past_float_range(tmp_path, capsys):
    # a quarter-turn-per-two-steps orbit whose moduli no float can hold
    big = Fraction(10**400)
    system = JnfSystem(
        (JordanBlock(1, Fraction(1), Angle(Fraction(1, 4))),),
        (PolarPoint(big, 0),),
        (PolarPoint(big, 2),),
        PolarRounding(RoundingKind.FLOOR, 4),
    )
    path = write(tmp_path, "inst.json", serialize_instance(system))
    assert main(["decide", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "reached"
    assert out["step"] == 2
    assert out["witness"] == [{"modulus": str(10**400), "angle_index": 2}]


def test_decide_not_reached_certificate(tmp_path, capsys):
    system = rational_example()
    path = write(tmp_path, "inst.json", serialize_instance(system))
    assert main(["decide", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "reached"

    miss = RationalSystem(
        system.matrix, system.initial, (Fraction(1), Fraction(1)),
        system.rounding)
    path = write(tmp_path, "miss.json", serialize_instance(miss))
    assert main(["decide", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "not-reached"
    assert "certificate" in out


def test_decide_undecided_exit_two(tmp_path, capsys):
    blocks = (JordanBlock(1, Fraction(1), Angle(Fraction(1, 2))),)
    system = JnfSystem(
        blocks,
        (ArgandPoint(Fraction(1), Fraction(0)),),
        (ArgandPoint(Fraction(0), Fraction(1)),),
        ArgandRounding(RoundingKind.MINIMAL_ERROR_UP),
    )
    path = write(tmp_path, "inst.json", serialize_instance(system))
    assert main(["decide", path]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "undecided-by-this-tool"
    assert out["reason"]


def test_parse_error_exit_one(tmp_path, capsys):
    path = write(tmp_path, "bad.json", "{not json")
    assert main(["decide", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_rational_instance_with_polar_rounding_rejected(tmp_path, capsys):
    obj = json.loads(serialize_instance(rational_example()))
    obj["rounding"] = json.loads(serialize_instance(polar_example()))["rounding"]
    path = write(tmp_path, "polar.json", json.dumps(obj))
    assert main(["decide", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a rational-matrix instance needs componentwise rounding\n"


def test_unknown_field_rejected(tmp_path, capsys):
    obj = json.loads(serialize_instance(polar_example()))
    obj["extra"] = True
    path = write(tmp_path, "extra.json", json.dumps(obj))
    assert main(["decide", path]) == 1
    assert "extra" in capsys.readouterr().err


def test_missing_field_rejected(tmp_path, capsys):
    obj = json.loads(serialize_instance(polar_example()))
    del obj["target"]
    path = write(tmp_path, "missing.json", json.dumps(obj))
    assert main(["decide", path]) == 1
    assert "target" in capsys.readouterr().err


# each integer field of the instance format: an example holding it, and
# the object it sits in
INTEGER_FIELDS = {
    "version": (truncation_example, lambda obj: obj),
    "size": (truncation_example, lambda obj: obj["blocks"][0]),
    "angle_resolution": (polar_example, lambda obj: obj["rounding"]),
    "angle_index": (polar_example, lambda obj: obj["initial"][0]),
}


@pytest.mark.parametrize("field", list(INTEGER_FIELDS))
def test_boolean_integer_field_rejected(tmp_path, capsys, field):
    # JSON true would otherwise pass as the integer 1
    example, holder = INTEGER_FIELDS[field]
    obj = json.loads(serialize_instance(example()))
    holder(obj)[field] = True
    path = write(tmp_path, "bool.json", json.dumps(obj))
    assert main(["decide", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err


# a malformed value for each array field and for the objects it holds:
# an example holding the field, and the fields put in its place
NO_POINTS = {"initial": [], "target": []}
MALFORMED_FIELDS = {
    "matrix-string": (rational_example, {"matrix": "1234"}),
    "matrix-string-rows": (rational_example, {"matrix": ["12", "34"]}),
    "matrix-number-row": (rational_example, {"matrix": [5]}),
    "matrix-empty": (rational_example, {"matrix": [], **NO_POINTS}),
    "rational-initial": (rational_example, {"initial": "97"}),
    "rational-target": (rational_example, {"target": "00"}),
    "blocks-string": (truncation_example, {"blocks": "1"}),
    "blocks-number-entry": (truncation_example, {"blocks": [5]}),
    "blocks-empty": (truncation_example, {"blocks": [], **NO_POINTS}),
    "jnf-initial": (truncation_example, {"initial": "3"}),
    "jnf-target": (truncation_example, {"target": "0"}),
}


@pytest.mark.parametrize("case", list(MALFORMED_FIELDS))
def test_malformed_field_rejected(tmp_path, capsys, case):
    # a string would otherwise be read as the list of its characters
    example, fields = MALFORMED_FIELDS[case]
    obj = json.loads(serialize_instance(example()))
    obj.update(fields)
    path = write(tmp_path, "bad.json", json.dumps(obj))
    for command in ("decide", "bounds", "simulate"):
        argv = [command, path] + (["--steps", "2"] if command == "simulate" else [])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


def on_half_grid(obj: dict) -> dict:
    obj["rounding"]["granularity"] = "1/2"
    return obj


def set_in(path: tuple, value):
    """An edit of an instance object that puts value at the key path."""

    def edit(obj: dict) -> dict:
        holder = obj
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = value
        return obj

    return edit


RE = ("initial", 0, "re")
# a bad instance per case: an example, the edits made to its JSON object,
# and the exact line `decide` writes to stderr
ERROR_TABLE = {
    "zero-denominator": (truncation_example, [set_in(RE, "1/0")], "error: bad rational '1/0'"),
    "not-a-number": (truncation_example, [set_in(RE, "x")], "error: bad rational 'x'"),
    "signed-denominator": (truncation_example, [set_in(RE, "1/-2")],
                           "error: bad rational '1/-2'"),
    "decimal-numerator": (truncation_example, [set_in(RE, "1.5/2")],
                          "error: bad rational '1.5/2'"),
    "json-number": (truncation_example, [set_in(RE, 5)],
                    "error: expected a rational string, got 5"),
    "zero-granularity": (truncation_example, [set_in(("rounding", "granularity"), "0")],
                         "error: granularity must be positive"),
    "argand-off-grid": (
        truncation_example, [on_half_grid, set_in(RE, "1/3")],
        "error: point ArgandPoint(re=Fraction(1, 3), im=Fraction(0, 1)) is not admissible "
        "under ArgandRounding(kind=<RoundingKind.TRUNCATE: 'truncate'>, "
        "granularity=Fraction(1, 2))"),
    "polar-off-grid": (
        polar_example, [on_half_grid, set_in(("target", 1, "modulus"), "3/4")],
        "error: point PolarPoint(modulus=Fraction(3, 4), angle_index=0) is not admissible "
        "under PolarRounding(modulus_kind=<RoundingKind.MINIMAL_ERROR_UP: 'minimal_error_up'>, "
        "angle_resolution=2, granularity=Fraction(1, 2))"),
    "rational-off-grid": (rational_example, [on_half_grid, set_in(("target", 1), "5/4")],
                          "error: 5/4 is not on the granularity-1/2 grid"),
    "negative-modulus": (polar_example, [set_in(("initial", 0, "modulus"), "-5")],
                         "error: modulus must be nonnegative"),
    "angle-index-past-2R": (
        polar_example, [set_in(("initial", 1, "angle_index"), 4)],
        "error: point PolarPoint(modulus=Fraction(4, 1), angle_index=4) is not admissible "
        "under PolarRounding(modulus_kind=<RoundingKind.MINIMAL_ERROR_UP: 'minimal_error_up'>, "
        "angle_resolution=2, granularity=Fraction(1, 1))"),
}


@pytest.mark.parametrize("case", list(ERROR_TABLE))
def test_bad_instance_error_text_is_pinned(tmp_path, capsys, case):
    example, edits, message = ERROR_TABLE[case]
    obj = json.loads(serialize_instance(example()))
    for edit in edits:
        obj = edit(obj)
    path = write(tmp_path, "bad.json", json.dumps(obj))
    assert main(["decide", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def fraction_parse_rational(text) -> Fraction:
    """The reference reader: every rational string through Fraction(text)."""
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}") from exc


def parsed_or_error(text: str):
    try:
        return repr(parse_instance(text))
    except ValueError as exc:
        return type(exc), str(exc)


def instances_holding(number: str) -> list[str]:
    """Instance texts with the number string as a matrix entry, and as a
    block's angle and a point's real part on the granularity-1/2 grid."""
    rational = json.loads(serialize_instance(rational_example()))
    rational["matrix"][0][1] = number
    jnf = json.loads(serialize_instance(truncation_example()))
    jnf["rounding"]["granularity"] = "1/2"
    jnf["blocks"][0]["angle"] = number + " pi"
    jnf["initial"][0]["re"] = number
    return [json.dumps(rational), json.dumps(jnf)]


def assert_parses_as_fraction_does(number: str) -> None:
    for text in instances_holding(number):
        mine = parsed_or_error(text)
        with mock.patch.object(cli, "_parse_rational", fraction_parse_rational):
            assert mine == parsed_or_error(text)


NUMERATORS = st.integers(0, 200).flatmap(lambda bits: st.integers(-(2**bits), 2**bits))
DENOMINATORS = st.integers(0, 200).flatmap(lambda bits: st.integers(0, 2**bits))
CANONICAL_NUMBERS = st.one_of(
    NUMERATORS.map(str),
    st.tuples(NUMERATORS, DENOMINATORS).map(lambda pair: f"{pair[0]}/{pair[1]}"),
)


@settings(max_examples=300, deadline=None)
@given(CANONICAL_NUMBERS)
def test_canonical_numbers_parse_as_fraction_reads_them(number):
    assert_parses_as_fraction_does(number)


# Fraction(text) also takes "1_000", " 3 ", "1e3", "007" and the Arabic-Indic "٣".
# Six characters keep an exponent below 10^4, whose power builds at once;
# two signed digit runs around one separator reach spellings like "1/-2"
SIGNS = st.sampled_from(["", "-", "+"])
DIGITS = st.text(alphabet="019٣", max_size=3)
NUMBER_STRINGS = st.one_of(
    st.text(alphabet="0123456789+-/._e \n٣", max_size=6),
    st.tuples(SIGNS, DIGITS, st.sampled_from(["", "/", ".", "e", "_", " ", "\n"]), SIGNS, DIGITS)
    .map("".join),
)


@settings(max_examples=500, deadline=None)
@given(NUMBER_STRINGS)
def test_any_number_string_parses_or_fails_as_fraction_does(number):
    assert_parses_as_fraction_does(number)


@pytest.mark.parametrize("number", ["1_000", " 3 ", "1e3", "007", "٣", "-0", "4/0", "6/-4"])
def test_fraction_spellings_parse_as_fraction_reads_them(number):
    assert_parses_as_fraction_does(number)


@pytest.mark.parametrize("theta", ["1/0 pi", "2^(1/0) pi", "2^(1/2)/0 pi"])
def test_rotate_rejects_zero_denominator(capsys, theta):
    assert main(["rotate", "--radius", "2", "--theta", theta]) == 1
    assert capsys.readouterr().err.startswith("error: zero denominator")


def test_simulate_prints_states(tmp_path, capsys):
    path = write(tmp_path, "inst.json", serialize_instance(polar_example()))
    assert main(["simulate", path, "--steps", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["states"]) == 4
    first = out["states"][0]
    assert first[0] == {"modulus": "5", "angle_index": 0}


def test_bounds_outputs_tables(tmp_path, capsys):
    path = write(tmp_path, "inst.json", serialize_instance(polar_example()))
    assert main(["bounds", path]) == 0
    text = capsys.readouterr().out
    assert "step cap" in text
    assert "modulus ceiling per dimension" in text

    path = write(tmp_path, "rat.json", serialize_instance(rational_example()))
    assert main(["bounds", path]) == 0
    text = capsys.readouterr().out
    assert "step cap" in text


def test_compile_qbf_stdout(tmp_path, capsys):
    formula = write(tmp_path, "f.txt", "exists x1 forall x2 : (x1 | !x2)\n")
    assert main(["compile-qbf", formula]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "hardness"
    assert out["family"] == "minerr"
    # prefix pads to 4 alternating quantifiers; the matrix has 2 operators
    assert out["dimension"] == (3 * 4 + 1 + 2) * (4 * 4 + 15 + 2)
    assert out["factor"] == "1"


def test_compile_qbf_flags(tmp_path, capsys):
    formula = write(tmp_path, "f.txt", "exists x1 forall x2 : (x1 & !x2)\n")
    assert main(["compile-qbf", formula, "--family", "floor", "--perturb"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["family"] == "floor"
    assert out["factor"] == "11/10"

    target = tmp_path / "hard.json"
    assert main(["compile-qbf", formula, "-o", str(target)]) == 0
    meta = json.loads(capsys.readouterr().out)
    assert meta["out"] == str(target)
    assert json.loads(target.read_text())["kind"] == "hardness"


def test_compile_qbf_rejects_ceil_perturb_up_front(tmp_path, capsys):
    # the formula file is never read: the combination fails for every formula
    missing = str(tmp_path / "no-such-formula.txt")
    assert main(["compile-qbf", missing, "--family", "ceil", "--perturb"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--family ceil" in captured.err and "--perturb" in captured.err


def test_compile_qbf_accepts_the_instance_file_spelling(tmp_path, capsys):
    assert GadgetFamily("minimal_error_up") is GadgetFamily.MINIMAL_ERROR
    formula = write(tmp_path, "f.txt", "forall x1 exists x2 : x1 | x2\n")
    assert main(["compile-qbf", formula, "--family", "minerr"]) == 0
    minerr = capsys.readouterr().out
    assert main(["compile-qbf", formula, "--family", "minimal_error_up"]) == 0
    assert capsys.readouterr().out == minerr
    assert json.loads(minerr)["family"] == "minerr"


def test_compile_qbf_qdimacs(tmp_path, capsys):
    text = "p cnf 2 2\ne 1 0\na 2 0\n1 2 0\n-1 -2 0\n"
    formula = write(tmp_path, "f.qdimacs", text)
    assert main(["compile-qbf", formula, "--qdimacs"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "hardness"


@pytest.mark.parametrize("text, message", [
    ("p cnf 1 1\na -1 0\n1 0\n", "quantified variable -1 is outside 1..1"),
    ("p cnf 1 1\n1 5 0\n", "literal 5 names a variable past 1"),
    ("p cnf 2 2\n1 2 0\n-1 -2\n", "the last clause does not end in 0"),
], ids=["quantified-outside-range", "literal-past-n", "unterminated-clause"])
def test_compile_qbf_qdimacs_rejects_malformed_input(tmp_path, capsys, text, message):
    formula = write(tmp_path, "f.qdimacs", text)
    assert main(["compile-qbf", formula, "--qdimacs"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


# SHA-256 of the compile-qbf output for each formula, family and perturbation,
# pinning the emitted bytes
COMPILE_QBF_DIGESTS = {
    "readme": ("forall x1 exists x2 : (x1 | !x2) & x2\n", [], {
        ("floor", False): "d2003bc692fc4cf7cb5abb8c4c672f536ced004784095e47ed96bc023fdb9722",
        ("floor", True): "b82e569f87c98fe6e1e2ad276b04e9e6be33651e09bdc1277091af0f300cbe67",
        ("ceil", False): "c960687fff44678c9483d6d98052bc16b88292c4bede51ce6e7ef23d5c8d08ba",
        ("minerr", False): "138d6ff511332f0d9b2d419438383bf98032fe919bf30f5e0625c380acff9949",
        ("minerr", True): "1b3cf46b134345ff06b3eb2858737ddf4474f39095e694f5cfa8010fbe34a770",
    }),
    "qdimacs": ("p cnf 2 2\ne 1 0\na 2 0\n1 2 0\n-1 -2 0\n", ["--qdimacs"], {
        ("floor", False): "62a7ac15c2f7af31f09fd2ce7eb50c2f08ae7746fc938f54f35a29afd4f95a4b",
        ("floor", True): "259ca2575fab432018bfc0f46758f6185ea9206002c1308075d93be43d692800",
        ("ceil", False): "ae03f22ecad6dfb810ee9336f74abc61191d2ecb227f71e2adf67c2f619e7c1b",
        ("minerr", False): "db065bdce3a043d61016d738aadfe120554414b7bccf742b16e1068d306b4cba",
        ("minerr", True): "33b645aa3ec2b7760657fc9b6d58a13ec765ddd3ba2d53e5ff5acef88b206adb",
    }),
    # two of criterion 2's two-variable matrices: a constant root and a
    # constant operand, both of which put the constant slot in a row twice
    "constant-root": ("forall x1 exists x2 : true\n", [], {
        ("floor", False): "5fadba29765b70f8736ec7f42714363711ad5f8b3c207b2b87194096f5cc78db",
        ("floor", True): "91f9adf983bfe7cb14dee776cfc18a3dc4f42111ba65b8bb6993dea001895b2f",
        ("ceil", False): "d0ae0fd61c75f7c9388981977aabd3e9d897e8f8d5572ae23f543dfdb24888dd",
        ("minerr", False): "e6846f7961062078fe5b79908303d0f82ba04a7e680eea0e4f7ad227979cdc12",
        ("minerr", True): "c6194fb58e195a87a395031810c5d5baed55617e431334a1adb4b3a6dd9d3db2",
    }),
    "constant-operand": ("forall x1 exists x2 : x1 | true\n", [], {
        ("floor", False): "2db2c8dfa016f0155a2f80f808f0519751132ef69370060d310922b7166aab84",
        ("floor", True): "8a828d8d03024507915718e6dfd40971a3aea9429604a39cb647f4927b87821d",
        ("ceil", False): "b429ba32ed51d90c639bd9fd028d6bf535387938a0f5d0be5ac4e1dca8db62ae",
        ("minerr", False): "cd97dff2ad8ee1ff2a351ea1ec1f02c87c8d17c7a0c0a5394cb649ed6a8eb638",
        ("minerr", True): "eadc37600a1a90336bcbed8e5c274154a2dc122d31208ad9f17fde6400b51d6d",
    }),
}


@pytest.mark.parametrize("name", sorted(COMPILE_QBF_DIGESTS))
def test_compile_qbf_bytes_are_pinned(tmp_path, capsys, name):
    text, extra, digests = COMPILE_QBF_DIGESTS[name]
    formula = write(tmp_path, "f.txt", text)
    for (family, perturbed), digest in digests.items():
        flags = ["--perturb"] if perturbed else []
        assert main(["compile-qbf", formula, "--family", family, *extra, *flags]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (family, perturbed)


def test_rotate_stdout_csv(capsys):
    assert main(["rotate", "--radius", "1", "--theta", "1/2 pi"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,y,first_generation"
    assert len(lines) == 6


def test_rotate_out_file(tmp_path, capsys):
    target = tmp_path / "grid.csv"
    assert main(["rotate", "--radius", "3", "--theta", "1/2 pi",
                 "--out", str(target)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["radius"] == 3
    assert summary["unresolved"] == 0
    assert summary["cells"] == 29
    body = target.read_text().splitlines()
    assert body[0] == "x,y,first_generation"
    assert len(body) == 30


def test_rotate_out_counts_each_start_once(tmp_path, capsys):
    target = tmp_path / "grid.csv"
    assert main(["rotate", "--radius", "3", "--theta", "1/2 pi", "--budget", "1",
                 "--out", str(target)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["unresolved"] > 0
    assert summary["starts"] == 29


def test_rotate_rejects_nonpositive_radius(capsys):
    for radius in ("0", "-2"):
        assert main(["rotate", "--radius", radius, "--theta", "1/2 pi"]) == 1
        assert "--radius must be positive" in capsys.readouterr().err


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_instance_blocks_decide_as_stated():
    readme = README.read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    stated = re.findall(r"# (Reached\(step=\d+\))", readme)
    assert stated == ["Reached(step=4)", "Reached(step=13)"]
    assert [str(dispatch(parse_instance(block))) for block in blocks] == stated


@pytest.mark.parametrize("resolution", [10**4, 10**5])
def test_readme_polar_instance_on_a_fine_angle_grid(resolution, tmp_path, capsys):
    # the field order is 2R: phi_(2R) must come out sparse and zeta^k on demand
    instance = json.loads(re.findall(r"```json\n(.*?)```", README.read_text(), re.S)[1])
    assert instance["rounding"]["shape"] == "polar"
    instance["rounding"]["angle_resolution"] = resolution
    path = write(tmp_path, "inst.json", json.dumps(instance))
    assert main(["decide", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"outcome": "not-reached",
                   "certificate": {"type": "diverged_past_target", "dimension": 0}}


def test_readme_library_example_prints_as_stated(capsys):
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    stated = re.findall(r"# (Reached\(step=\d+\))", code)
    assert stated
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == stated


def test_stdin_instance(tmp_path, capsys, monkeypatch):
    import io

    text = serialize_instance(polar_example())
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["decide", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["outcome"] == "reached"


def test_version_field_checked(tmp_path, capsys):
    obj = json.loads(serialize_instance(polar_example()))
    obj["version"] = 99
    path = write(tmp_path, "v.json", json.dumps(obj))
    assert main(["decide", path]) == 1
    assert "version" in capsys.readouterr().err


def test_bounds_prints_the_deciders_tables(tmp_path, capsys):
    # a real block under floor rounding: the decider's real-only effect
    # bound 1 gives radius 1 + max(|3|, |5|) = 6, not 3/2 + 5
    system = JnfSystem(
        (JordanBlock(1, Fraction(2), Angle(Fraction(0))),),
        (ArgandPoint(Fraction(3), Fraction(0)),),
        (ArgandPoint(Fraction(5), Fraction(0)),),
        ArgandRounding(RoundingKind.FLOOR),
    )
    path = write(tmp_path, "inst.json", serialize_instance(system))
    assert main(["bounds", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  escape radius per dimension: 6" in lines
    assert lines[-1].startswith("step cap: ")
    assert lines[-1].endswith(" (proved state bound)")
    assert main(["decide", path]) == 0
    certificate = json.loads(capsys.readouterr().out)["certificate"]
    assert certificate == {"type": "escaped_radius", "dimension": 0, "radius": "6"}

    path = write(tmp_path, "polar.json", serialize_instance(polar_example()))
    assert main(["bounds", path]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(" (safety net)")


def unit_floor_example() -> JnfSystem:
    return JnfSystem(
        (JordanBlock(1, Fraction(1), Angle(Fraction(1, 4))),),
        (ArgandPoint(Fraction(3), Fraction(0)),),
        (ArgandPoint(Fraction(0), Fraction(0)),),
        ArgandRounding(RoundingKind.FLOOR),
    )


def unit_rational_example() -> RationalSystem:
    return RationalSystem(
        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(2))),
        (Fraction(3), Fraction(1)),
        (Fraction(0), Fraction(0)),
        ArgandRounding(RoundingKind.FLOOR),
    )


@pytest.mark.parametrize("example", [unit_floor_example, unit_rational_example])
def test_bounds_is_undecided_where_decide_is(example, tmp_path, capsys):
    path = write(tmp_path, "inst.json", serialize_instance(example()))
    assert main(["decide", path]) == 2
    decided = capsys.readouterr().out
    assert json.loads(decided)["outcome"] == "undecided-by-this-tool"
    assert main(["bounds", path]) == 2
    assert capsys.readouterr().out == decided


UNIT_45 = JordanBlock(1, Fraction(1), Angle(Fraction(1, 4)))


def two_blocks(top: JordanBlock, kind: RoundingKind) -> JnfSystem:
    """The top block over a contracting real one, from (3, 4) towards (9, 0)."""
    half = JordanBlock(1, Fraction(1, 2), Angle(Fraction(0)))
    return JnfSystem(
        (top, half),
        (ArgandPoint(Fraction(3), Fraction(0)), ArgandPoint(Fraction(4), Fraction(0))),
        (ArgandPoint(Fraction(9), Fraction(0)), ArgandPoint(Fraction(0), Fraction(0))),
        ArgandRounding(kind),
    )


def test_bounds_prints_the_cap_the_decider_runs_under(tmp_path, capsys, monkeypatch):
    caps = []
    iterate = system_module.iterate

    def recording(*args, cap, cap_is_state_bound):
        caps.append((cap, cap_is_state_bound))
        return iterate(*args, cap=cap, cap_is_state_bound=cap_is_state_bound)

    monkeypatch.setattr(system_module, "iterate", recording)
    monkeypatch.setattr(hyperbolic, "iterate", recording)
    floor_hyperbolic = two_blocks(JordanBlock(1, Fraction(2), Angle(Fraction(0))),
                                  RoundingKind.FLOOR)
    truncate = two_blocks(UNIT_45, RoundingKind.TRUNCATE)
    expand = two_blocks(UNIT_45, RoundingKind.EXPAND)
    # decide runs no orbit from a start on its target, so this one moves
    polar = dataclasses.replace(polar_example(), target=(PolarPoint(Fraction(4), 1),
                                                         PolarPoint(Fraction(4), 0)))
    routes = (floor_hyperbolic, polar, truncate, expand, rational_example())
    for system in routes:
        path = write(tmp_path, "inst.json", serialize_instance(system))
        assert main(["decide", path]) == 0
        capsys.readouterr()
        (cap, cap_is_state_bound), = caps
        caps.clear()
        assert main(["bounds", path]) == 0
        label = "proved state bound" if cap_is_state_bound else "safety net"
        assert capsys.readouterr().out.splitlines()[-1] == f"step cap: {cap} ({label})"
    assert not caps


BOUNDS_README_POLAR = """\
block 0: size 2, eigenvalue modulus 1, angle 1/2 pi
  modulus ceiling per dimension: 27, 9
  settle bound per dimension:    753, 1
  growth base: 17280
step cap: 5388 (safety net)
"""

BOUNDS_UNIT_45 = """\
block 0: size 1, eigenvalue modulus 1, angle 1/4 pi
  modulus ceiling per dimension: 3
  settle bound per dimension:    6
  growth base: 12
block 1: size 1, eigenvalue modulus 1/2, angle 0 pi
  escape radius per dimension: 6
step cap: 785 (safety net)
"""

# SHA-256 of the `bounds` output of every system of criteria 4, 6 and 7 in turn
BOUNDS_CORPUS_DIGEST = "e6aa57d5e7c1f4a0714904f17a5bb67b6e42a9d7bc34eda042d263a051c44dce"


def test_bounds_bytes_are_pinned(tmp_path, capsys):
    readme_polar = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)[1]
    runs = [(readme_polar, BOUNDS_README_POLAR)] + [
        (serialize_instance(two_blocks(UNIT_45, kind)), BOUNDS_UNIT_45)
        for kind in (RoundingKind.TRUNCATE, RoundingKind.EXPAND)
    ]
    for text, expected in runs:
        assert main(["bounds", write(tmp_path, "inst.json", text)]) == 0
        assert capsys.readouterr().out == expected
    digest = hashlib.sha256()
    path = tmp_path / "corpus.json"
    for system in itertools.chain(hyperbolic_corpus(), polar_corpus(), argand_corpus()):
        path.write_text(serialize_instance(system))
        assert main(["bounds", str(path)]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == BOUNDS_CORPUS_DIGEST


def truncation_block(size: int) -> JnfSystem:
    """One truncation block at angle pi/3 that starts on its target, every
    point (3, 0)."""
    points = tuple(ArgandPoint(Fraction(3), Fraction(0)) for _ in range(size))
    return JnfSystem((JordanBlock(size, Fraction(1), Angle(Fraction(1, 3))),),
                     points, points, ArgandRounding(RoundingKind.TRUNCATE))


def assert_printed(text: str, value: int) -> None:
    """`bounds` writes a value of up to 4300 digits exactly, else < 2^N."""
    if value < 10**4300:
        assert text == str(value)
    else:
        assert text == f"< 2^{value.bit_length()}"


@pytest.mark.parametrize("size", [5, 6, 7])
def test_bounds_writes_huge_unit_budgets_by_bit_length(size, tmp_path, capsys, monkeypatch):
    # the settle budgets grow doubly exponentially in the block size: the
    # top one has 10,477 digits at size 5 and 3.2 million at size 7
    tables, caps = [], []
    unit_table, step_cap = argand_decider.unit_table, cli.step_cap
    monkeypatch.setattr(argand_decider, "unit_table",
                        lambda *args: tables.append(unit_table(*args)) or tables[-1])
    monkeypatch.setattr(cli, "step_cap", lambda *args: caps.append(step_cap(*args)) or caps[-1])
    path = write(tmp_path, "inst.json", serialize_instance(truncation_block(size)))
    assert main(["bounds", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    (table,), (cap,) = tables, caps

    def values(line: str) -> list[str]:
        return line.split(":", 1)[1].strip().split(", ")

    assert lines[1].startswith("  modulus ceiling per dimension: ")
    for text, u in zip(values(lines[1]), table.modulus_steps, strict=True):
        assert_printed(text, u)
    assert lines[2].startswith("  settle bound per dimension: ")
    for text, t in zip(values(lines[2]), table.settle_bounds, strict=True):
        assert_printed(text, t)
    assert values(lines[2])[0].startswith("< 2^")
    assert lines[-1].startswith("step cap: ") and lines[-1].endswith(" (safety net)")
    assert_printed(lines[-1][len("step cap: "):-len(" (safety net)")], cap)


def test_decide_answers_a_start_on_its_target_before_the_tables(tmp_path, capsys):
    # the size-7 block's settle budgets take seconds to build, and a start
    # on the target needs none of them
    path = write(tmp_path, "inst.json", serialize_instance(truncation_block(7)))
    began = time.perf_counter()
    assert main(["decide", path]) == 0
    assert time.perf_counter() - began < 1.0
    assert json.loads(capsys.readouterr().out)["step"] == 0


def rescaled(system, g: Fraction):
    """The same system on the granularity-g grid, every point times g: its
    orbit is the original one times g."""
    if isinstance(system, RationalSystem):
        return RationalSystem(system.matrix, tuple(v * g for v in system.initial),
                              tuple(v * g for v in system.target),
                              ArgandRounding(system.rounding.kind, g))
    spec = system.rounding
    if isinstance(spec, PolarRounding):
        spec = PolarRounding(spec.modulus_kind, spec.angle_resolution, g)
        scale = lambda p: PolarPoint(p.modulus * g, p.angle_index)  # noqa: E731
    else:
        spec = ArgandRounding(spec.kind, g)
        scale = lambda p: ArgandPoint(p.re * g, p.im * g)  # noqa: E731
    return JnfSystem(system.blocks, tuple(map(scale, system.initial)),
                     tuple(map(scale, system.target)), spec)


# SHA-256 of the `decide` verdict JSON of every system of criteria 4, 6 and 7
# and the rational corpus, in turn at granularity 1, 1/2 and 3/2
VERDICT_CORPUS_DIGEST = "20d0aaca1d7ac35af04ff6e082494592408ec4d2d11f7195116291541aae3476"


def test_decide_verdicts_are_pinned():
    corpus = list(itertools.chain(hyperbolic_corpus(), polar_corpus(), argand_corpus(),
                                  rational_corpus()))
    digest = hashlib.sha256()
    for g in (Fraction(1), Fraction(1, 2), Fraction(3, 2)):
        for system in corpus:
            system = rescaled(system, g)
            text = json.dumps(verdict_json(dispatch(system), system))
            digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == VERDICT_CORPUS_DIGEST


def _readme_command_lines(readme: str) -> list[list[str]]:
    """Every `roundreach ...` line of the Command line block, with its
    bracketed options left out, then put in once per listed alternative."""
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.S).group(1)
    runs = []
    for line in block.splitlines():
        line = line.split("#")[0].strip()
        assert line.startswith("roundreach ")
        template = re.sub(r"\[[^]]*\]", "{}", line)
        options = []
        for bracket in re.findall(r"\[([^]]*)\]", line):
            flag, _, alternatives = bracket.partition(" ")
            options.append(
                [f"{flag} {a}" for a in alternatives.split("|")] if alternatives else [flag]
            )
        runs.append(shlex.split(template.format(*[""] * len(options)))[1:])
        if options:
            for chosen in itertools.product(*options):
                runs.append(shlex.split(template.format(*chosen))[1:])
    return runs


def test_readme_command_lines_run(tmp_path, capsys, monkeypatch):
    readme = README.read_text()
    instances = re.findall(r"```json\n(.*?)```", readme, re.S)
    formula = re.search(r"matrix: `([^`]+)`", readme).group(1)
    (tmp_path / "formula.txt").write_text(formula + "\n")
    (tmp_path / "formula.qdimacs").write_text("p cnf 1 1\n1 0\n")
    monkeypatch.chdir(tmp_path)
    runs = _readme_command_lines(readme)
    assert len(runs) == 10
    assert ["bounds", "instance.json"] in runs
    for instance in instances:
        (tmp_path / "instance.json").write_text(instance)
        for argv in runs:
            # as the README says, a ceiling copy row cannot take the 11/10 scale
            rejected = "ceil" in argv and "--perturb" in argv
            assert main(argv) == (1 if rejected else 0), argv
            out = capsys.readouterr().out
            if argv[0] == "bounds":
                assert out.splitlines()[-1].startswith("step cap: ")
    assert (tmp_path / "out.json").exists() and (tmp_path / "grid.csv").exists()


def rational_instance(rows) -> str:
    n = len(rows)
    return serialize_instance(RationalSystem(
        tuple(tuple(Fraction(v) for v in row) for row in rows),
        (Fraction(3),) * n,
        (Fraction(0),) * n,
        ArgandRounding(RoundingKind.FLOOR),
    ))


MODULUS_ONE_REASON = (
    "the matrix has a modulus-one eigenvalue; for a general rational "
    "matrix no fragment of this tool applies"
)


@pytest.mark.parametrize("rows, reason", [
    ([[0, 1], [2, 0]], "the characteristic polynomial has the factor x^2 - 2 with no rational root"),
    ([[2, 1], [1, 1]], "the characteristic polynomial has the factor x^2 - 3*x + 1 with no rational root"),
    ([[1, -1], [1, 1]], "the characteristic polynomial has the factor x^2 - 2*x + 2 with no rational root"),
    ([[0, -1], [1, 0]], "the characteristic polynomial has the factor x^2 + 1 with no rational root"),
    ([[2, 1, 0], [0, 0, 1], [0, 2, 0]],
     "the characteristic polynomial has the factor x^2 - 2 with no rational root"),
    ([[1]], MODULUS_ONE_REASON),
    ([[-1]], MODULUS_ONE_REASON),
    ([[2, 0], [0, 1]], MODULUS_ONE_REASON),
])
def test_rational_spectrum_undecided_reasons(rows, reason, tmp_path, capsys):
    path = write(tmp_path, "inst.json", rational_instance(rows))
    assert main(["decide", path]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out == {"outcome": "undecided-by-this-tool", "reason": reason}


def test_decide_runs_without_sympy(tmp_path):
    # the README rational instance, decided in a fresh interpreter
    instance = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)[0]
    assert '"kind": "rational"' in instance
    path = write(tmp_path, "inst.json", instance)
    script = (
        "import sys\n"
        "from roundreach import cli\n"
        f"code = cli.main(['decide', {path!r}])\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
        "sys.exit(code)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["outcome"] == "reached"


def test_decide_runs_without_mpmath(tmp_path):
    # a hyperbolic decide, a polar decide in the order-24 field and a QBF
    # compile, each in a fresh interpreter, settle every rounding and sign in
    # integers, so none loads mpmath
    blocks = (JordanBlock(2, Fraction(3), Angle(Fraction(1, 2))),
              JordanBlock(1, Fraction(1, 2), Angle(Fraction(1))))
    points = [tuple(ArgandPoint(Fraction(a), Fraction(b)) for a, b in row)
              for row in (((1, 2), (-3, 1), (7, 0)), ((0, 0), (4, -4), (1, 0)))]
    system = JnfSystem(blocks, *points, ArgandRounding(RoundingKind.FLOOR))
    instance = write(tmp_path, "hyper.json", serialize_instance(system))
    # its divergence test signs |w|^2 - 36 for a w with sqrt2 and sqrt3 parts
    polar = JnfSystem((JordanBlock(2, Fraction(1), Angle(Fraction(1, 4))),),
                      (PolarPoint(Fraction(7), 3), PolarPoint(Fraction(2), 4)),
                      (PolarPoint(Fraction(6), 3), PolarPoint(Fraction(2), 3)),
                      PolarRounding(RoundingKind.FLOOR, 3))
    polar_instance = write(tmp_path, "polar.json", serialize_instance(polar))
    formula = write(tmp_path, "f.txt", "exists x1 forall x2 : (x1 | !x2)\n")
    out = str(tmp_path / "qbf.json")
    src = str(Path(__file__).resolve().parent.parent / "src")
    for args in (["decide", instance], ["decide", polar_instance],
                 ["compile-qbf", formula, "-o", out]):
        script = (
            "import sys\n"
            "from roundreach import cli\n"
            f"code = cli.main({args!r})\n"
            "assert 'mpmath' not in sys.modules, 'mpmath was imported'\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, (args, proc.stderr)
    assert json.loads(Path(out).read_text())["kind"] == "hardness"
