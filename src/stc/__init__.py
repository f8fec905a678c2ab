"""Sequential text classification.

A reading agent that consumes documents sentence by sentence, deciding at
each step whether to assign categories, read on, or stop. The agent's
action scorer is linear over block state-action features and is trained
by rollout-based policy iteration; a whole-document one-vs-rest linear
classifier serves as the comparison baseline.
"""

from .baseline import BaselineModel, predict_baseline, train_baseline
from .corpus import (
    CategorySet,
    Document,
    MONO_LABEL,
    MULTI_LABEL,
    RawDocument,
    Split,
    Vocabulary,
    build_vocabulary,
    convert_cardoso,
    corpus_stats,
    load_jsonl,
    make_splits,
    prepare_split,
    save_jsonl,
    vectorize_corpus,
    vectorize_sentence,
)
from .evaluation import (
    ExperimentPlan,
    Prediction,
    evaluate_policy,
    macro_f1,
    micro_f1,
    reading_histogram,
    reading_size,
    run_experiment,
    write_report_files,
)
from .learn import (
    PolicyTrainResult,
    RolloutConfig,
    build_training_set,
    policy_iteration,
    rollout_return,
    sample_state,
)
from .mdp import (
    Action,
    EpisodeLog,
    MdpState,
    NEXT,
    STOP,
    available_actions,
    classify,
    initial_state,
    is_terminal,
    prf1,
    reward,
    run_episode,
    transition,
    walk,
)
from .policy import (
    ClassifierConfig,
    Examples,
    Greedy,
    LinearQ,
    UniformRandom,
    q_value,
    select_action,
    train_linear,
    train_multiclass_ovr,
)
from .preprocess import (
    is_stopword,
    normalize,
    porter_stem,
    preprocess_sentence,
    split_sentences,
)
from .sparse import SparseVector
from .synthetic import SyntheticSpec, generate

__version__ = "0.1.0"
