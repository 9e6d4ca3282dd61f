#include "core/checkpoint.hpp"

#include <utility>

#include "support/check.hpp"

namespace df::core {

void persist_value(support::StateArchive& ar, event::Value& value) {
  std::uint8_t tag = static_cast<std::uint8_t>(value.kind());
  ar.u8(tag);
  if (ar.saving()) {
    switch (value.kind()) {
      case event::Value::Kind::kEmpty:
        break;
      case event::Value::Kind::kBool: {
        bool b = value.as_bool();
        ar.boolean(b);
        break;
      }
      case event::Value::Kind::kInt: {
        std::int64_t x = value.as_int();
        ar.i64(x);
        break;
      }
      case event::Value::Kind::kDouble: {
        double x = value.as_double();
        ar.f64(x);
        break;
      }
      case event::Value::Kind::kString: {
        std::string s = value.as_string();
        ar.str(s);
        break;
      }
      case event::Value::Kind::kVector: {
        std::vector<double> xs = value.as_vector();
        ar.sequence(xs, [](support::StateArchive& a, double& x) { a.f64(x); });
        break;
      }
    }
    return;
  }
  switch (tag) {
    case 0:
      value = event::Value();
      break;
    case 1: {
      bool b = false;
      ar.boolean(b);
      value = event::Value(b);
      break;
    }
    case 2: {
      std::int64_t x = 0;
      ar.i64(x);
      value = event::Value(x);
      break;
    }
    case 3: {
      double x = 0.0;
      ar.f64(x);
      value = event::Value(x);
      break;
    }
    case 4: {
      std::string s;
      ar.str(s);
      value = event::Value(std::move(s));
      break;
    }
    case 5: {
      std::vector<double> xs;
      ar.sequence(xs, [](support::StateArchive& a, double& x) { a.f64(x); });
      value = event::Value(std::move(xs));
      break;
    }
    default:
      DF_CHECK(false, "checkpoint: unknown Value kind tag ",
               static_cast<unsigned>(tag));
  }
}

std::vector<std::uint8_t> seal_image(std::vector<std::uint8_t> body) {
  const std::uint64_t sum = support::fnv1a(body.data(), body.size());
  for (std::size_t i = 0; i < 8; ++i) {
    body.push_back(static_cast<std::uint8_t>(sum >> (8 * i)));
  }
  return body;
}

std::vector<std::uint8_t> open_image(const std::vector<std::uint8_t>& image,
                                     const char* what) {
  DF_CHECK(image.size() >= 8, what,
           " checkpoint: image truncated (missing checksum trailer)");
  const std::size_t body_size = image.size() - 8;
  std::uint64_t stored = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    stored |= static_cast<std::uint64_t>(image[body_size + i]) << (8 * i);
  }
  const std::uint64_t computed = support::fnv1a(image.data(), body_size);
  DF_CHECK(stored == computed, what,
           " checkpoint: checksum mismatch (torn or corrupt image)");
  return std::vector<std::uint8_t>(image.begin(),
                                   image.begin() +
                                       static_cast<std::ptrdiff_t>(body_size));
}

}  // namespace df::core
