"""stpalint: a compiler and analyzer for textual STPA safety models.

The public names below live in the package's submodules. Each is imported
on first use, so a command loads only the modules it runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "analysis": (
        "Conflict",
        "ContextRow",
        "ContextTable",
        "ModelStats",
        "build_context_table",
        "coverage_gaps",
        "detect_conflicts",
        "enumerate_contexts",
        "expand",
        "stats",
    ),
    "causal": ("ChecklistItem", "PathDirection", "PathWalk", "checklist", "validate_cfs", "walk_paths"),
    "corpus": ("load_corpus",),
    "model": (
        "ALLOWED_QUALIFIERS",
        "AnalysisError",
        "CausalFactor",
        "CfCategory",
        "Context",
        "ControllerConstraint",
        "Diagnostic",
        "Edge",
        "EdgeKind",
        "Entity",
        "EntityKind",
        "GuideCategory",
        "GuideQualifier",
        "GuideWord",
        "Hazard",
        "Loss",
        "ProcessModelVariable",
        "Severity",
        "SourceSpan",
        "StpaModel",
        "SystemConstraint",
        "UnsafeControlAction",
        "context_matches",
        "qualifier_allowed",
        "resolve",
        "trace_closure",
    ),
    "parser": ("parse",),
    "printer": ("UnresolvedModelError", "serialize"),
}

# public name -> its submodule
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
