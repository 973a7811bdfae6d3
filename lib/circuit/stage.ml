type t = { delay : float; energy : float; leakage : float; area : float }
