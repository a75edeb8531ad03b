"""Tuple-independent probabilistic databases: schemas, storage, SQLite."""

from .database import (
    MutationOutcome,
    ProbabilisticDatabase,
    Table,
    TupleRef,
    apply_record,
)
from .io import load_database, load_table_csv, save_database, save_table_csv
from .journal import DurableStore, JournalError, load_snapshot, write_snapshot
from .generators import (
    constant_probabilities,
    populate_random_table,
    random_table_rows,
    uniform_probabilities,
)
from .schema import Schema, TableSchema
from .sqlite_backend import (
    PROB_COLUMN,
    IorAggregate,
    SQLiteBackend,
    SQLiteViewRegistry,
    sql_literal,
)

__all__ = [
    "PROB_COLUMN",
    "DurableStore",
    "IorAggregate",
    "JournalError",
    "MutationOutcome",
    "ProbabilisticDatabase",
    "SQLiteBackend",
    "SQLiteViewRegistry",
    "Schema",
    "Table",
    "TableSchema",
    "TupleRef",
    "apply_record",
    "constant_probabilities",
    "load_database",
    "load_snapshot",
    "load_table_csv",
    "save_database",
    "save_table_csv",
    "write_snapshot",
    "populate_random_table",
    "random_table_rows",
    "sql_literal",
    "uniform_probabilities",
]
