"""The package root: its exported names, its imports, and the README quickstart."""

import ast
import io
import json
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import lexseg

README = Path(__file__).resolve().parents[1] / "README.md"

ROOT_NAMES = {
    # monomials and Macaulay representations
    "Monomial", "VariableWindow", "parse_monomial",
    "MacaulayRep", "macaulay_rep", "binom", "space_dimension",
    "ideal_growth_bound", "quotient_growth_bound",
    # segments
    "IDEAL", "QUOTIENT", "SegmentSpec", "Summand", "Decomposition",
    "ideal_segment", "quotient_segment", "segment_dimension", "decompose",
    "split_once", "multiply_segment", "multiply_decomposition",
    # duality
    "CoefficientSets", "ideal_coefficients", "quotient_coefficients",
    "coefficient_sets", "reconstruct_from_ideal_set",
    "reconstruct_from_quotient_set", "rank", "unrank",
    # errors
    "LexsegError", "InvalidInputError", "MonomialParseError", "InvalidRepError",
    "UnitMonomialError", "NoPredecessorError", "NoSuccessorError",
    "ResourceLimitError", "InternalConsistencyError",
}

_FRESH_IMPORT = """
import json, sys
import lexseg
print(json.dumps({
    "oracle_loaded": "lexseg.oracle" in sys.modules,
    "all": sorted(lexseg.__all__),
    "unresolved": [name for name in lexseg.__all__ if not hasattr(lexseg, name)],
}))
"""


def test_fresh_import_exports_closed_forms_only():
    src = Path(lexseg.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_IMPORT],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    report = json.loads(proc.stdout)
    assert report["oracle_loaded"] is False
    assert report["all"] == sorted(ROOT_NAMES)
    assert report["unresolved"] == []


def _quickstart() -> str:
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    return block


def _leading_literal(comment: str):
    """(True, value) when the comment text starts with a Python literal."""
    for end in range(len(comment), 0, -1):
        try:
            return True, ast.literal_eval(comment[:end])
        except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
            continue
    return False, None


def test_readme_quickstart_runs_and_its_values_hold():
    block = _quickstart()
    comments = {
        tok.start[0]: tok.string.lstrip("#").strip()
        for tok in tokenize.generate_tokens(io.StringIO(block).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        found, expected = _leading_literal(comments.get(stmt.end_lineno, ""))
        if isinstance(stmt, ast.Expr) and found:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            line = ast.get_source_segment(block, stmt)
            assert value == expected, f"{line} gave {value!r}, README says {expected!r}"
            checked.append(line)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    # 362, 924, both coefficient tuples, macaulay_rep(114, 6), rank, unrank
    assert len(checked) >= 7, checked
