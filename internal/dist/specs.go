package dist

import "ptguard/internal/harness"

// KindSlowdown names the Fig. 6/7 campaign kind, for callers that start a
// coordinator on a harness.SlowdownSpec.
var KindSlowdown = harness.SlowdownSpec{}.Kind()
