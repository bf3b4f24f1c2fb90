#include "tango/pattern.h"

namespace tango::core {

void ScoreDb::record(PatternMeasurement m) {
  db_[{m.switch_id, m.pattern}] = std::move(m);
}

const PatternMeasurement* ScoreDb::find(SwitchId sw,
                                        const std::string& pattern) const {
  const auto it = db_.find({sw, pattern});
  return it == db_.end() ? nullptr : &it->second;
}

std::vector<const PatternMeasurement*> ScoreDb::for_switch(SwitchId sw) const {
  std::vector<const PatternMeasurement*> out;
  for (const auto& [key, m] : db_) {
    if (key.first == sw) out.push_back(&m);
  }
  return out;
}

}  // namespace tango::core
