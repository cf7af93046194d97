// Hardware health monitors (temperature, fan, voltage, power) as found on
// HPC nodes — the failure-prediction signal source for the paper's §6.5
// scenario. Values drift deterministically; anomalies are injected by the
// failure framework.
#pragma once

#include <cstdint>

#include "hw/types.hpp"

namespace mercury::hw {

struct SensorReadings {
  double temperature_c = 45.0;
  double fan_rpm = 8000.0;
  double voltage_v = 12.0;
  bool power_ok = true;
};

class HealthSensors {
 public:
  /// Sample the sensors; returns the cycles the SMBus poll consumed.
  Cycles read(SensorReadings& out) const;

  void inject_overheat(double temperature_c) { readings_.temperature_c = temperature_c; }
  void inject_fan_failure() { readings_.fan_rpm = 0.0; }
  void clear_anomalies() { readings_ = SensorReadings{}; }

  /// Threshold predicate matching common failure-prediction policies.
  static bool predicts_failure(const SensorReadings& r) {
    return r.temperature_c > 85.0 || r.fan_rpm < 1000.0 || !r.power_ok ||
           r.voltage_v < 10.8;
  }

 private:
  SensorReadings readings_{};
};

}  // namespace mercury::hw
