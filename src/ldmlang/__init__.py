"""ldmlang: a small probabilistic modeling language for longitudinal data.

Model text goes in, an executable log-density plan comes out; a built-in NUTS
sampler draws from the posterior and missing continuous observations become
latent sites that are imputed jointly with the parameters.

Typical use:

    from ldmlang import compile_model, run, summarize, format_summary
    from ldmlang.datatable import read_table

    table = read_table("panel.csv", index_names=("t",))
    plan = compile_model(open("model.ldm").read(), tables=(table,), obs=("y",))
    draws = run(plan, seed=0)
    print(format_summary(summarize(draws)))
"""

__version__ = "0.1.0"

from .analysis import (  # noqa: F401
    ModelScore, SummaryRow, effective_sample_size, extract_imputations,
    format_summary, score, split_rhat, summarize,
)
from .datatable import DataTable, make_table, read_table, write_csv  # noqa: F401
from .errors import LdmError  # noqa: F401
from .frontend import parse_program, render, validate  # noqa: F401
from .graph import build_graph, to_dot  # noqa: F401
from .plan import (  # noqa: F401
    FUSED, UNROLLED, ExecutablePlan, compile_model, lower, prior_simulate,
)
from .sampler import DrawSet, SamplerConfig, run  # noqa: F401

__all__ = [
    "__version__",
    "parse_program", "validate", "render",
    "build_graph", "to_dot",
    "compile_model", "lower", "prior_simulate", "ExecutablePlan",
    "FUSED", "UNROLLED",
    "run", "SamplerConfig", "DrawSet",
    "summarize", "format_summary", "SummaryRow", "split_rhat",
    "effective_sample_size", "extract_imputations", "score", "ModelScore",
    "DataTable", "read_table", "write_csv", "make_table",
    "LdmError",
]
