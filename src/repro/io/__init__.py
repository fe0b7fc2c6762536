"""Result persistence: JSON results, CSV summaries, result store, eval cache."""

from repro.io.evalcache import PersistentEvalCache
from repro.io.serialization import (
    atomic_write_text,
    decode_state_blob,
    encode_state_blob,
    load_session_checkpoint,
    save_session_checkpoint,
    load_search_result,
    pipeline_from_dict,
    pipeline_to_dict,
    read_rows_csv,
    save_search_result,
    search_result_from_dict,
    search_result_to_dict,
    trial_from_dict,
    trial_to_dict,
    write_rows_csv,
)
from repro.io.store import ResultKey, ResultStore

__all__ = [
    "PersistentEvalCache",
    "atomic_write_text",
    "pipeline_to_dict",
    "pipeline_from_dict",
    "trial_to_dict",
    "trial_from_dict",
    "search_result_to_dict",
    "search_result_from_dict",
    "save_search_result",
    "load_search_result",
    "save_session_checkpoint",
    "load_session_checkpoint",
    "encode_state_blob",
    "decode_state_blob",
    "write_rows_csv",
    "read_rows_csv",
    "ResultKey",
    "ResultStore",
]
