let claims =
  [
    "Full MOAS detection cuts false-route adoption by 1-2 orders of magnitude";
    "Detection robustness improves with topology size";
    "Half deployment still removes most of the damage";
    "DNS/MOASRR lookups happen only on conflicts, not per update";
  ]
