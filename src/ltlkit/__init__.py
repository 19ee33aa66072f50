"""Natural-language planning instructions to LTL, with automaton-backed
validation, self-consistency voting, and a grid-world planning demo.

The public names below are imported from their submodule on first use
(PEP 562), so ``import ltlkit`` runs no submodule and a caller that uses
only the parser or the planner loads only what those need.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it defines: the one list of exports.
_EXPORTS = {
    "automata": (
        "BuchiAutomaton", "ResourceLimitError", "SatResult", "build_automaton",
        "dump", "equiv", "is_empty", "is_satisfiable",
    ),
    "evaluation": (
        "Dataset", "DatasetRecord", "DatasetSchemaError", "EvalReport",
        "dataset_stats", "evaluate_dataset", "ground_formula", "load_dataset",
    ),
    "formulas": (
        "And", "Atom", "Finally", "Formula", "Globally", "LassoWord", "Not",
        "Or", "Release", "Until", "atoms", "evaluate", "to_nnf",
    ),
    "gateway": (
        "AuthenticationError", "Completion", "GatewayError", "GenerationConfig",
        "HttpBackend", "MockBackend", "NetworkError", "ProviderError",
        "RecordingBackend", "ReplayBackend", "ReplayMissError", "ReplayStore",
    ),
    "parsing": (
        "InternalOperatorError", "ParseError", "UnknownOperatorError", "parse",
        "print_formula",
    ),
    "pipeline": (
        "AllRunsFailedError", "NoMajorityError", "PipelineConfig",
        "TranslationResult", "TranslationRun", "translate", "vote",
    ),
    "planner": (
        "GridWorld", "NoPlanError", "Trajectory", "UnsatisfiableFormulaError",
        "WorldFormatError", "builtin_world", "load_world", "parse_world",
        "plan", "render_path",
    ),
    "prompts": (
        "CoTExample", "ExtractionError", "PromptBundle", "PromptHeader",
        "PromptValidationError", "builtin_prompt_set", "extract_formula",
        "load_prompt_set", "render", "render_reprompt", "validate_bundle",
    ),
    "srl": (
        "LexiconError", "Role", "RoleLexicon", "RoleSpan", "default_lexicon",
        "load_lexicon", "render_annotation", "tag",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "__version__"])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
