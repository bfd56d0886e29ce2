#include "core/device_model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace qopt {

int DeviceModel::MaxReliableDepth() const {
  QOPT_CHECK(avg_gate_time_ns > 0.0);
  const double coherence_ns = std::min(t1_us, t2_us) * 1000.0;
  return static_cast<int>(std::floor(coherence_ns / avg_gate_time_ns));
}

double DeviceModel::DecoherenceErrorProbability(int depth) const {
  QOPT_CHECK(depth >= 0);
  const double coherence_ns = std::min(t1_us, t2_us) * 1000.0;
  const double execution_ns = static_cast<double>(depth) * avg_gate_time_ns;
  return 1.0 - std::exp(-execution_ns / coherence_ns);
}

DeviceModel MumbaiDevice() {
  // Coherence/gate-time constants from Sec. 5.3.2; error rates are
  // representative 2021 Falcon calibration values.
  return {"ibmq_mumbai", 27, 117.22, 118.47, 471.111,
          /*cx_error=*/8.7e-3, /*sx_error=*/2.1e-4, /*readout_error=*/1.8e-2};
}

DeviceModel BrooklynDevice() {
  // Coherence/gate-time constants from Sec. 6.3.4; error rates are
  // representative 2021 Hummingbird calibration values.
  return {"ibmq_brooklyn", 65, 66.02, 79.44, 370.469,
          /*cx_error=*/1.3e-2, /*sx_error=*/3.1e-4, /*readout_error=*/2.5e-2};
}

}  // namespace qopt
