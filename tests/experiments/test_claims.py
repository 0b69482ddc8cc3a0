"""The claims manifest, run once as a pool campaign (one task per task
group): every check holds and every block matches the committed
EXPERIMENTS.md (``python -m repro reproduce --out EXPERIMENTS.md``)."""

import pathlib

import pytest

from repro.cli import main
from repro.exec.pool import ProcessPoolBackend
from repro.experiments import claims
from repro.experiments.claims import CLAIMS, TASKS, Claim, ClaimError
from repro.experiments.claims import evaluate, exact, render_blocks
from repro.experiments.claims import rewrite_blocks, run_claim

EXPERIMENTS_MD = pathlib.Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


@pytest.fixture(scope="module")
def outcomes():
    with ProcessPoolBackend(jobs=2, chunksize=1) as backend:
        values = backend.map(run_claim, list(TASKS))
    return evaluate(dict(zip(TASKS, values)))


def test_every_check_holds(outcomes):
    failed = [(o.claim.key, o.value, o.checks) for o in outcomes if not o.ok]
    assert not failed


def test_experiments_md_is_generated(outcomes):
    text = EXPERIMENTS_MD.read_text(encoding="utf-8")
    assert rewrite_blocks(text, render_blocks(outcomes)) == text


def test_every_task_has_rows_and_every_key_is_unique():
    assert {claim.task for claim in CLAIMS} == set(TASKS)
    assert len({claim.key for claim in CLAIMS}) == len(CLAIMS)


DOC = "intro 1.5\r\n<!-- claims:a -->\nold\n<!-- /claims:a -->\ntail ✓ 2\n"


class TestRewriteBlocks:
    def test_only_the_block_body_changes(self):
        assert rewrite_blocks(DOC, {"a": "new"}) == DOC.replace("old", "new")
        assert rewrite_blocks(DOC, {"a": "old"}) == DOC
        bare = "<!-- claims:a --><!-- /claims:a -->"
        assert rewrite_blocks(bare, {"a": "x"}) == bare.replace(
            "><", ">\nx\n<")

    @pytest.mark.parametrize("doc, blocks", [
        (DOC.replace("<!-- claims:a -->", ""), {"a": "new"}),
        (DOC.replace("<!-- /claims:a -->", ""), {"a": "new"}),
        (DOC + "<!-- claims:a -->\n", {"a": "new"}),
        ("<!-- /claims:a --><!-- claims:a -->", {"a": "new"}),
        (DOC, {}),  # a marker without rows
    ])
    def test_a_missing_duplicated_or_unknown_marker_names_it(self, doc,
                                                             blocks):
        with pytest.raises(ClaimError, match="'a'"):
            rewrite_blocks(doc, blocks)

    def test_a_row_whose_block_is_absent_fails(self):
        outcomes = evaluate({"t": {"x": 1, "y": 2}}, [
            Claim("t", "x", "a", "x"), Claim("t", "y", "b", "y"),
        ])
        with pytest.raises(ClaimError, match="'b'"):
            rewrite_blocks(DOC, render_blocks(outcomes))


def test_checks_report_failures_and_missing_values():
    [outcome] = evaluate({"t": {"x": 3}}, [Claim("t", "x", "a", "x", 2,
                                                (exact(2),))])
    assert not outcome.ok and outcome.checks == (("= 2", False),)
    with pytest.raises(ClaimError, match="t.y"):
        evaluate({"t": {"x": 3}}, [Claim("t", "y", "a", "y")])


def test_reproduce_rewrites_blocks_and_exits_1_on_a_failed_check(
    monkeypatch, tmp_path, capsys
):
    doc = tmp_path / "doc.md"
    doc.write_text(DOC, encoding="utf-8", newline="")
    monkeypatch.setattr(claims, "TASKS", {"t": lambda: {"x": 3}})
    for bound, code in ((3, 0), (2, 1)):
        monkeypatch.setattr(claims, "CLAIMS", (
            Claim("t", "x", "a", "x", None, (exact(bound),)),
        ))
        assert main(["reproduce", "--out", str(doc)]) == code
    out = capsys.readouterr().out
    assert "| x | — | 3 | = 2 |" in out
    assert "0/1 claims hold; failed: t.x" in out
    assert doc.read_bytes().decode("utf-8") == DOC.replace(
        "old", "| claim | paper | measured | check |\n|---|---|---|---|\n"
        "| x | — | 3 | = 2 |"
    )
