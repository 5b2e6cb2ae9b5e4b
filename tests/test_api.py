"""The exported API: every public function and class has a caller outside the tests."""

import inspect
import re
from pathlib import Path

import extremal
import extremal.verify

ROOT = Path(__file__).resolve().parent.parent

# Exported although nothing outside the tests calls it, and why.
ALLOWED_UNUSED = {
    "shift_resistant_pairs": "the shift engine's test oracle; shift_ad_extremis finds the pairs in place",
}


def exported_callables():
    names = set()
    for module in (extremal, extremal.verify):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                names.add(name)
    return sorted(names)


def has_caller(name, src_texts, other_texts):
    """Named in src/ besides its definition (package __init__ re-exports excluded), or elsewhere."""
    word = re.compile(rf"\b{re.escape(name)}\b")
    definition = re.compile(rf"^\s*(?:def|class)\s+{re.escape(name)}\b", re.MULTILINE)
    if any(len(word.findall(text)) > len(definition.findall(text)) for text in src_texts):
        return True
    return any(word.search(text) for text in other_texts)


def test_every_export_has_a_caller():
    src_texts = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "src").rglob("*.py"))
                 if p.name != "__init__.py"]
    other_texts = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "bench").glob("*.py"))]
    other_texts.append((ROOT / "README.md").read_text(encoding="utf-8"))
    unused = [name for name in exported_callables()
              if not has_caller(name, src_texts, other_texts)]
    assert sorted(unused) == sorted(ALLOWED_UNUSED)
