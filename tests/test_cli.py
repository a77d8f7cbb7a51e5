import dataclasses
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

import potseq.cli as cli
from potseq.graphs import decode_graph6, degree_sequence_of, find_km_minus_c4, from_edgelist
from potseq.search import Mismatch, VerificationReport
from potseq.sequences import MAX_TERMS


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue(), err.getvalue()


# --- check-graphic ----------------------------------------------------------


def test_check_graphic_no():
    code, out, _ = run(["check-graphic", "3^3,1"])
    assert code == 1
    assert "not graphic" in out
    assert "sigma: 10" in out


def test_check_graphic_yes():
    code, out, _ = run(["check-graphic", "5^6"])
    assert code == 0
    assert "sequence: 5^6" in out


def test_check_graphic_lemma_fixture():
    code, _, _ = run(["check-graphic", "4^3,2^2"])
    assert code == 1


def test_check_graphic_parse_error():
    code, _, err = run(["check-graphic", "5^"])
    assert code == 2
    assert "parse" in err


def test_check_graphic_json():
    code, out, _ = run(["check-graphic", "5^2,3^4,0^2", "--json"])
    assert code == 0
    assert json.loads(out) == {
        "input": "5^2,3^4,0^2",
        "normalized": "5^2,3^4",
        "stripped_zeros": 2,
        "sigma": 22,
        "graphic": True,
    }


def test_check_graphic_breach_when_methods_disagree(monkeypatch):
    monkeypatch.setattr(cli, "is_graphic_layoff", lambda s: True)
    code, _, err = run(["check-graphic", "3^3,1"])
    assert code == 3
    assert "disagree" in err


# --- check ------------------------------------------------------------------


def test_check_fixed_exception():
    code, out, _ = run(["check", "5^2,4^6"])
    assert code == 1
    assert "COND3_FIXED" in out
    assert "matches exception (5^2,4^6)" in out


def test_check_yes():
    code, _, _ = run(["check", "8,5,3^7"])
    assert code == 0


def test_check_k5c4():
    code, _, _ = run(["check", "4,2^5", "--target", "k5-c4"])
    assert code == 1


def test_check_json_schema():
    code, out, _ = run(["check", "5^2,4^6", "--json"])
    assert code == 1
    assert json.loads(out) == {
        "input": "5^2,4^6",
        "normalized": "5^2,4^6",
        "target": "K6-C4",
        "graphic": True,
        "potential": False,
        "reason": "COND3_FIXED",
        "matched_exception": "5^2,4^6",
        "exception_index": 0,
        "lhs": None,
        "rhs": None,
        "family_k": None,
        "family_i": None,
    }


NUMBERS = ("lhs", "rhs", "exception_index", "family_k", "family_i")


@pytest.mark.parametrize(
    "literal,target,reason,numbers,human",
    [
        (
            "6^3,3^4",
            "k6-c4",
            "COND2_SUM",
            (18, 16, None, None, None),
            "fails condition (2): d1+d2+d3 = 18 > n+2k+t+1 = 16",
        ),
        (
            "5^2,4^6",
            "k6-c4",
            "COND3_FIXED",
            (None, None, 0, None, None),
            "matches exception (5^2,4^6)",
        ),
        (
            "5,4,2^3,1",
            "k5-c4",
            "COND2_FAMILY_KI",
            (None, None, None, 1, 3),
            "matches exception family (n-k,k+i,2^i,1^(n-i-2)) with k = 1, i = 3",
        ),
    ],
    ids=["COND2_SUM", "COND3_FIXED", "COND2_FAMILY_KI"],
)
def test_check_json_carries_the_numbers(literal, target, reason, numbers, human):
    code, out, _ = run(["check", literal, "--target", target, "--json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["reason"] == reason
    assert tuple(payload[key] for key in NUMBERS) == numbers
    # the human output does not carry the new keys
    code, out, _ = run(["check", literal, "--target", target])
    assert code == 1
    name = cli.TARGETS[target].pattern.name
    assert out == f"sequence: {literal}\ntarget: {name}\nverdict: no ({reason})\n{human}\n"


def test_check_too_many_terms_is_a_usage_error():
    code, out, err = run(["check", f"1^{MAX_TERMS + 1}"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot parse sequence")


def test_unexpected_exception_is_an_internal_error(monkeypatch):
    def boom(seq):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.TARGETS, "k6-c4", dataclasses.replace(cli.TARGETS["k6-c4"], decide=boom))
    code, out, err = run(["check", "5^6"])
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_check_json_is_byte_deterministic():
    a = run(["check", "8,5,3^7", "--json"])
    b = run(["check", "8,5,3^7", "--json"])
    assert a == b


# --- realize ----------------------------------------------------------------


def test_realize_edgelist_pattern_itself():
    code, out, _ = run(["realize", "5^2,3^4", "--format", "edgelist"])
    assert code == 0
    edges = [l for l in out.splitlines() if l and not l.startswith("#") and "=" not in l]
    assert len(edges) == 11
    assert "# hubs: 0 1" in out


def test_realize_graph6_decodes_to_k6():
    code, out, _ = run(["realize", "5^6", "--format", "graph6"])
    assert code == 0
    g6 = out.strip().splitlines()[-1]
    g = decode_graph6(g6)
    assert g.degrees() == (5,) * 6


def test_realize_refused_with_verdict():
    code, out, _ = run(["realize", "5^2,4^6"])
    assert code == 1
    assert "matches exception (5^2,4^6)" in out


def test_realize_graph6_too_large_is_a_usage_error():
    code, out, err = run(["realize", "62^63", "--format", "graph6"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "n <= 62" in err


def test_realize_long_sequence_completes():
    # the completion search keeps its own stack, so a certificate's length is
    # not bounded by Python's recursion limit
    code, out, err = run(["realize", "5^8,3^1000", "--format", "edgelist"])
    assert code == 0 and err == ""
    g = from_edgelist(out)
    assert g.n == 1008
    assert degree_sequence_of(g).terms == (5,) * 8 + (3,) * 1000
    assert find_km_minus_c4(g, 6) is not None


def test_realize_dot():
    code, out, _ = run(["realize", "4^5", "--target", "k5-c4", "--format", "dot"])
    assert code == 0
    assert out.startswith("graph g {")


# --- sigma ------------------------------------------------------------------


def test_sigma_both_line():
    code, out, _ = run(["sigma", "--n", "7", "--mode", "both"])
    assert code == 0
    assert out.strip() == "formula=32 search=32 witness=(6^3,3^4)"


def test_sigma_formula_only():
    code, out, _ = run(["sigma", "--n", "100", "--mode", "formula"])
    assert code == 0
    assert out.strip() == "590"


def test_sigma_search_only():
    code, out, _ = run(["sigma", "--n", "6", "--mode", "search"])
    assert code == 0
    assert out.strip() == "26"


def test_sigma_bound_refusal():
    code, _, err = run(["sigma", "--n", "12", "--mode", "search"])
    assert code == 2
    assert "bound" in err


def test_sigma_domain_error():
    code, _, _ = run(["sigma", "--n", "5"])
    assert code == 2


def test_sigma_k5c4_search():
    code, out, _ = run(["sigma", "--n", "5", "--target", "k5-c4", "--mode", "search"])
    assert code == 0
    assert out.strip() == "16"


def test_sigma_k5c4_formula_unsupported():
    code, _, err = run(["sigma", "--n", "6", "--target", "k5-c4", "--mode", "formula"])
    assert code == 2


# --- verify -----------------------------------------------------------------


def test_verify_n6():
    code, out, _ = run(["verify", "--n", "6"])
    assert code == 0
    assert "71 sequences checked, 0 mismatches" in out


def test_verify_range_expression():
    code, out, _ = run(["verify", "--n", "5..6", "--target", "k5-c4"])
    assert code == 0
    assert "n=5" in out and "n=6" in out


@pytest.mark.parametrize("n", ["0", "-1", "0..3"])
def test_verify_rejects_n_below_one(n):
    code, out, err = run(["verify", "--n", n])
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad --n value")


def test_verify_bound_refusal():
    code, _, err = run(["verify", "--n", "12"])
    assert code == 2
    assert "bound" in err


def test_verify_bad_bound_environment_is_a_usage_error(monkeypatch):
    monkeypatch.setenv("POTSEQ_ORACLE_BOUND", "abc")
    code, out, err = run(["verify", "--n", "6"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "POTSEQ_ORACLE_BOUND" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_nonpositive_jobs(jobs):
    code, out, err = run(["verify", "--n", "6", "--jobs", jobs])
    assert code == 2
    assert out == ""
    assert "--jobs" in err


def test_verify_json_and_worker_determinism():
    a_code, a_out, _ = run(["verify", "--n", "6", "--json", "--jobs", "1"])
    b_code, b_out, _ = run(["verify", "--n", "6", "--json", "--jobs", "2"])
    assert a_code == b_code == 0
    a, b = json.loads(a_out), json.loads(b_out)
    a.pop("wall_time"), b.pop("wall_time")
    assert a == b
    assert a["total_sequences"] == 71 and a["agreements"] == 71


def test_verify_mismatch_is_a_breach(monkeypatch):
    fake = VerificationReport(
        n=6,
        target="K6-C4",
        total_sequences=1,
        agreements=0,
        mismatches=[Mismatch("5^6", "no", "COND1_D2", True)],
    )
    monkeypatch.setattr(cli, "verify_range", lambda *a, **k: fake)
    code, out, _ = run(["verify", "--n", "6"])
    assert code == 3
    assert "mismatch" in out


def test_progress_goes_to_stderr_not_stdout():
    _, out, err = run(["verify", "--n", "5"])
    assert "progress" not in out
    assert "verify n=5" in err
