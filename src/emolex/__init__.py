"""Semi-supervised emotion lexicon expansion via label propagation on
word-embedding similarity graphs."""

from .embeddings import EmbeddingStore, Vocabulary, load_embeddings
from .lexicon import (EKMAN_SIX, EmotionSet, LabelMatrix, SeedLexicon,
                      init_label_matrix, load_seed_lexicon,
                      seed_to_distribution, write_lexicon_json,
                      write_lexicon_tsv)
from .graph import (PropagationParams, TransitionOperator, build_transition,
                    edge_weight)
from .solver import (ConvergenceError, ExpansionResult, SolveReport, expand,
                     propagate_cg, propagate_closed_form, propagate_folds,
                     propagate_iterative)
from .optimize import (OptimizerConfig, OptTrace, entropy, entropy_gradient,
                       fit_batched, fit_full)
from .evaluate import (EvalReport, baseline_expander, corpus_lexicon_stats,
                       count_classify, cross_validate, kl_divergence,
                       label_prop_expander, load_corpus, make_folds,
                       micro_prf)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "EKMAN_SIX", "EmbeddingStore", "EmotionSet",
    "EvalReport", "ExpansionResult", "LabelMatrix", "OptTrace",
    "OptimizerConfig", "PropagationParams", "SeedLexicon", "SolveReport",
    "TransitionOperator", "Vocabulary", "baseline_expander",
    "build_transition", "corpus_lexicon_stats", "count_classify",
    "cross_validate",
    "edge_weight", "entropy", "entropy_gradient", "expand", "fit_batched",
    "fit_full", "init_label_matrix", "kl_divergence", "label_prop_expander",
    "load_corpus", "load_embeddings", "load_seed_lexicon", "make_folds",
    "micro_prf", "propagate_cg", "propagate_closed_form", "propagate_folds",
    "propagate_iterative", "seed_to_distribution",
    "write_lexicon_json", "write_lexicon_tsv",
]
