"""Domain-flavoured synthetic property graphs + matching workloads.

The paper motivates pattern matching over large graphs with fraud
detection, recommender systems and protein/genome analysis, but reports no
datasets (workshop paper).  These generators stand in for the missing
production data: each builds a labelled property graph whose schema forces
the label-correlated recurring sub-structures that pattern workloads
traverse, plus the workload a client of that domain would run.

* :func:`repro.datasets.social.social_network` /
  :func:`repro.datasets.social.social_workload` -- users, posts, comments
  and pages (the GDBMS/online-query setting of the paper's introduction).
* :func:`repro.datasets.fraud.fraud_network` /
  :func:`repro.datasets.fraud.fraud_workload` -- accounts, devices, cards
  and rings (citation [18] of the paper).
* :func:`repro.datasets.citation.citation_network` /
  :func:`repro.datasets.citation.citation_workload` -- papers, authors and
  venues (recommender-style traversals, citation [7]).
* :func:`repro.datasets.churn.churn_stream` /
  :func:`repro.datasets.churn.churn_workload` -- a mixed insert/delete
  *stream* (the dataset is the churn itself): growth with interleaved
  removals, for the dynamic-graph path of the stack.
* :func:`repro.datasets.motif.motif_testbed` -- planted abc paths and
  abab squares in uniform noise with the matching skewed workload (the
  experiment suite's and the runtime tests' shared fixture).
"""

from collections.abc import Callable
from typing import Any

from repro.datasets.social import social_network, social_workload
from repro.datasets.fraud import fraud_network, fraud_workload
from repro.datasets.citation import citation_network, citation_workload
from repro.datasets.churn import churn_stream, churn_workload
from repro.datasets.motif import motif_testbed
from repro.datasets.protein import protein_network, protein_workload

#: name -> (source generator, workload generator): what a session ingests
#: by name and a serve tenant pre-binds.  A source generator returns a
#: :class:`LabelledGraph` (serialised under the session's ordering) or a
#: ready event stream (``churn``, whose insert/delete sequence *is* the
#: dataset).
DATASETS: dict[str, tuple[Callable[..., Any], Callable[[], Any]]] = {
    "social": (social_network, social_workload),
    "fraud": (fraud_network, fraud_workload),
    "citation": (citation_network, citation_workload),
    "protein": (protein_network, protein_workload),
    "churn": (churn_stream, churn_workload),
}

__all__ = [
    "DATASETS",
    "social_network",
    "social_workload",
    "fraud_network",
    "fraud_workload",
    "citation_network",
    "citation_workload",
    "churn_stream",
    "churn_workload",
    "motif_testbed",
    "protein_network",
    "protein_workload",
]
