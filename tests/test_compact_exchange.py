"""The compact exchange rows must expand back to the oracle's triples
(``prov.statement_to_triples``), and be narrower than full-width triples."""

import pyarrow as pa

from gitprov_ray import schemas, synth
from gitprov_ray.stages import triples as T

from oracle_parity import (engine_statements, oracle_statements,
                           oracle_triples, triple_rows)


def test_compact_flatten_expand_roundtrip():
    _, revisions, contributors = synth.gen_corpus(12, seed=42)
    contributors = contributors.to_pylist()
    expected = oracle_triples(oracle_statements(revisions, contributors))
    compact = T.flatten_batch_compact(engine_statements(revisions, contributors))
    got = triple_rows(T.expand_compact(compact))
    assert len(got) == len(set(got)) and set(got) == expected
    # the compact exchange really is narrower
    full = pa.Table.from_pylist(
        [dict(zip(schemas.TRIPLES.names, t)) for t in expected],
        schema=schemas.TRIPLES)
    assert compact.nbytes < 0.65 * full.nbytes
