type t = { delay : float; energy : float; leakage : float; area : float }

let series a b =
  {
    delay = a.delay +. b.delay;
    energy = a.energy +. b.energy;
    leakage = a.leakage +. b.leakage;
    area = a.area +. b.area;
  }
