"""Downstream classifiers, metrics and cross-validation utilities."""

from repro.models.base import Classifier, one_hot, softmax
from repro.models.forest import RandomForestClassifier, RandomForestRegressor
from repro.models.gbdt import GradientBoostingClassifier
from repro.models.linear import LinearDiscriminantAnalysis, LogisticRegression
from repro.models.metrics import (
    accuracy_score,
    balanced_accuracy_score,
    confusion_matrix,
    cross_val_score,
    error_rate,
    log_loss,
    roc_auc_score,
    stratified_kfold_indices,
    train_test_split,
)
from repro.models.mlp import MLPClassifier
from repro.models.neighbors import (
    GaussianNB,
    KNeighborsClassifier,
    MajorityClassClassifier,
)
from repro.models.registry import (
    CLASSIFIER_CLASSES,
    DOWNSTREAM_MODEL_NAMES,
    FAST_MODEL_PARAMS,
    get_classifier_class,
    make_classifier,
)
from repro.models.tree import DecisionTreeClassifier, DecisionTreeRegressor

__all__ = [
    "Classifier",
    "softmax",
    "one_hot",
    "LogisticRegression",
    "LinearDiscriminantAnalysis",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "RandomForestClassifier",
    "RandomForestRegressor",
    "GradientBoostingClassifier",
    "MLPClassifier",
    "KNeighborsClassifier",
    "GaussianNB",
    "MajorityClassClassifier",
    "accuracy_score",
    "balanced_accuracy_score",
    "error_rate",
    "log_loss",
    "roc_auc_score",
    "confusion_matrix",
    "train_test_split",
    "cross_val_score",
    "stratified_kfold_indices",
    "CLASSIFIER_CLASSES",
    "DOWNSTREAM_MODEL_NAMES",
    "FAST_MODEL_PARAMS",
    "get_classifier_class",
    "make_classifier",
]
