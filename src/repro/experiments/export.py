"""Export experiment results to machine-readable formats."""

from __future__ import annotations

import csv
import io
import json
import pathlib
from typing import Dict, List, Optional, Sequence, Union


def rows_to_csv(rows: Sequence[Dict]) -> str:
    """Serialize a figure's row dicts to CSV (union of keys, in order)."""
    if not rows:
        return ""
    fieldnames: List[str] = []
    for row in rows:
        if not isinstance(row, dict):
            raise TypeError(
                "rows_to_csv expects dict rows; tables with list rows "
                "export via their structured twin"
            )
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def result_to_json(result: Dict) -> str:
    """Serialize an experiment result (rows + metadata, not the table)."""
    payload = {
        key: value for key, value in result.items()
        if key not in ("table", "chart", "points")
    }
    return json.dumps(payload, indent=2, default=str)


def export_experiment(
    experiment_id: str,
    directory: Union[str, pathlib.Path],
    result: Optional[Dict] = None,
) -> List[pathlib.Path]:
    """Run (or take) an experiment and write .txt / .csv / .json files.

    Returns the written paths.
    """
    from repro.figures.generators import get_artifact

    if result is None:
        result = get_artifact(experiment_id).run()
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []

    text = result["table"]
    if "chart" in result:
        text += "\n\n" + result["chart"]
    txt_path = directory / f"{experiment_id}.txt"
    txt_path.write_text(text + "\n")
    written.append(txt_path)

    rows = result.get("rows", [])
    if rows and isinstance(rows[0], dict):
        csv_path = directory / f"{experiment_id}.csv"
        csv_path.write_text(rows_to_csv(rows))
        written.append(csv_path)

    json_path = directory / f"{experiment_id}.json"
    json_path.write_text(result_to_json(result))
    written.append(json_path)
    return written
