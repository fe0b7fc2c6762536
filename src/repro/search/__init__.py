"""The 15 Auto-FP search algorithms, extensions, and their unified framework."""

from repro.search.asha import ASHA
from repro.search.bandit import BOHB, Hyperband
from repro.search.bandit_extra import ThompsonSamplingSearch, UCBSearch
from repro.search.base import SearchAlgorithm
from repro.search.enas import ENAS
from repro.search.evolution import PBT, TEVO_H, TEVO_Y, TournamentEvolution
from repro.search.pnas import PLE, PLNE, PME, PMNE, ProgressiveNAS
from repro.search.registry import (
    ALGORITHM_CATEGORIES,
    ALL_ALGORITHM_NAMES,
    EXTENSION_ALGORITHM_CLASSES,
    SEARCH_ALGORITHM_CLASSES,
    category_of,
    get_search_algorithm_class,
    make_search_algorithm,
    taxonomy_table,
)
from repro.search.reinforce import Reinforce
from repro.search.session import SearchSession
from repro.search.smac import SMAC, expected_improvement
from repro.search.tpe import TPE
from repro.search.traditional import Anneal, RandomSearch

__all__ = [
    "SearchAlgorithm",
    "SearchSession",
    "ASHA",
    "RandomSearch",
    "Anneal",
    "SMAC",
    "expected_improvement",
    "TPE",
    "ProgressiveNAS",
    "PMNE",
    "PME",
    "PLNE",
    "PLE",
    "TournamentEvolution",
    "TEVO_H",
    "TEVO_Y",
    "PBT",
    "Reinforce",
    "ENAS",
    "Hyperband",
    "BOHB",
    "UCBSearch",
    "ThompsonSamplingSearch",
    "EXTENSION_ALGORITHM_CLASSES",
    "SEARCH_ALGORITHM_CLASSES",
    "ALGORITHM_CATEGORIES",
    "ALL_ALGORITHM_NAMES",
    "get_search_algorithm_class",
    "make_search_algorithm",
    "taxonomy_table",
    "category_of",
]
