#include "sim/composition.hpp"

namespace rfd::sim {

Bytes frame(InstanceId instance, const Bytes& inner) {
  Writer w;
  w.varint(instance);
  w.bytes(inner);
  return std::move(w).take();
}

std::pair<InstanceId, Bytes> unframe(const Bytes& outer) {
  Reader r(outer);
  const auto instance = static_cast<InstanceId>(r.varint());
  Bytes inner = r.bytes();
  return {instance, std::move(inner)};
}

}  // namespace rfd::sim
