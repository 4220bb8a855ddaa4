"""The ``default=`` hook that lets stdlib json write warpframe documents.

``GeometricData.to_document`` and the frame writers of warpframe.io hold
their float data as flattened float64 arrays. warpframe.io writes such an
array as the list of its floats; this hook has stdlib json do the same, so
``json.dump(doc, fh, indent=1, default=float64_list)`` stays the reference
the writers are compared against. Every other object still raises
TypeError, as without the hook.
"""

import numpy as np


def float64_list(o):
    if isinstance(o, np.ndarray) and o.ndim == 1 and o.dtype == np.float64:
        return o.tolist()
    raise TypeError(f"Object of type {o.__class__.__name__} "
                    f"is not JSON serializable")
