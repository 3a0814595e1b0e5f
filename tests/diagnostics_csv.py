"""Read a diagnostics CSV back into records; only the tests need this."""

from pathlib import Path

from graphain.diagnostics import DiagnosticsRecord

HEADER = "layer,mean_pairwise_sq_dist,frob_sq,column_gram_dev,column_sum_dev,subspace_dist"


def _optional(tok):
    return None if tok == "" else float(tok)


def records_from_csv(path) -> list:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert lines and lines[0] == HEADER, f"{path}: wrong diagnostics header"
    records = []
    for line in lines[1:]:
        layer, pairwise, frob, gram, col_sum, subspace = line.split(",")
        records.append(
            DiagnosticsRecord(
                layer=int(layer),
                mean_pairwise_sq_dist=float(pairwise),
                frob_sq=float(frob),
                column_gram_dev=float(gram),
                column_sum_dev=float(col_sum),
                subspace_dist=_optional(subspace),
            )
        )
    return records
