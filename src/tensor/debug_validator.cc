#include "tensor/debug_validator.h"

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "util/check.h"

namespace sthsl {
namespace debug_validator_internal {

namespace {

bool EnabledFromEnv() {
  const char* value = std::getenv("STHSL_DEBUG_CHECKS");
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

}  // namespace

std::atomic<bool> g_enabled{EnabledFromEnv()};

}  // namespace debug_validator_internal

namespace {

/// Index of the first non-finite value in `data`, or -1 if all are finite.
int64_t FirstNonFinite(const std::vector<float>& data) {
  for (size_t i = 0; i < data.size(); ++i) {
    if (!std::isfinite(data[i])) return static_cast<int64_t>(i);
  }
  return -1;
}

std::string DescribeValue(float v) {
  if (std::isnan(v)) return "NaN";
  std::ostringstream os;
  os << v;
  return os.str();
}

std::string InputShapes(const std::vector<Tensor>& inputs) {
  std::ostringstream os;
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (i > 0) os << ", ";
    os << (inputs[i].Defined() ? ShapeToString(inputs[i].Shape())
                               : std::string("<undefined>"));
  }
  return os.str();
}

}  // namespace

bool SetDebugChecks(bool enabled) {
  return debug_validator_internal::g_enabled.exchange(
      enabled, std::memory_order_relaxed);
}

std::string ShapeToString(const std::vector<int64_t>& shape) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

void ValidateForwardResult(const std::string& op_name,
                           const std::vector<int64_t>& shape,
                           const std::vector<float>& data,
                           const std::vector<Tensor>& inputs) {
  STHSL_CHECK_EQ(NumelOf(shape), static_cast<int64_t>(data.size()))
      << "debug validator: forward op '" << op_name
      << "' produced a buffer inconsistent with its shape "
      << ShapeToString(shape);
  const int64_t bad = FirstNonFinite(data);
  STHSL_CHECK(bad < 0) << "debug validator: forward op '" << op_name
                       << "' produced "
                       << DescribeValue(data[static_cast<size_t>(bad)])
                       << " at flat index " << bad << " of output shape "
                       << ShapeToString(shape) << " (input shapes: "
                       << InputShapes(inputs) << ")";
}

void ValidateOpInput(const char* op_name, const char* arg_name,
                     const Tensor& input) {
  if (!input.Defined()) return;
  const int64_t bad = FirstNonFinite(input.Data());
  STHSL_CHECK(bad < 0) << "debug validator: op '" << op_name << "' received "
                       << DescribeValue(input.Data()[static_cast<size_t>(bad)])
                       << " in operand '" << arg_name << "' at flat index "
                       << bad << ", shape " << ShapeToString(input.Shape());
}

void ValidateBackwardGradient(const std::string& op_name, size_t input_index,
                              const Tensor& grad,
                              const std::vector<int64_t>& input_shape) {
  STHSL_CHECK(grad.Shape() == input_shape)
      << "debug validator: backward of '" << op_name
      << "' returned a gradient of shape " << ShapeToString(grad.Shape())
      << " for input " << input_index << " of shape "
      << ShapeToString(input_shape);
  const int64_t bad = FirstNonFinite(grad.Data());
  STHSL_CHECK(bad < 0) << "debug validator: backward of '" << op_name
                       << "' produced "
                       << DescribeValue(grad.Data()[static_cast<size_t>(bad)])
                       << " at flat index " << bad << " of the gradient for "
                       << "input " << input_index << ", shape "
                       << ShapeToString(input_shape);
}

void ValidateGradAccumulation(const TensorImpl& target, const Tensor& grad) {
  STHSL_CHECK(target.requires_grad || target.grad_fn != nullptr)
      << "debug validator: accumulating a gradient onto a tensor of shape "
      << ShapeToString(target.shape)
      << " that is not marked as requiring grad and has no grad_fn";
  STHSL_CHECK_EQ(static_cast<int64_t>(target.data.size()), grad.Numel())
      << "debug validator: gradient of shape " << ShapeToString(grad.Shape())
      << " accumulated onto a tensor of shape " << ShapeToString(target.shape);
}

void ValidateOptimizerStep(const char* optimizer_name,
                           const std::vector<Tensor>& params) {
  for (size_t i = 0; i < params.size(); ++i) {
    const Tensor& p = params[i];
    const auto& grad = p.Grad();
    if (grad.empty()) continue;  // parameter did not participate this step
    STHSL_CHECK_EQ(grad.size(), p.Data().size())
        << "debug validator: " << optimizer_name << " parameter " << i
        << " of shape " << ShapeToString(p.Shape())
        << " has a mis-sized gradient buffer";
    int64_t bad = FirstNonFinite(grad);
    STHSL_CHECK(bad < 0) << "debug validator: " << optimizer_name
                         << " step sees "
                         << DescribeValue(grad[static_cast<size_t>(bad)])
                         << " in the gradient of parameter " << i
                         << ", shape " << ShapeToString(p.Shape());
    bad = FirstNonFinite(p.Data());
    STHSL_CHECK(bad < 0) << "debug validator: " << optimizer_name
                         << " step sees "
                         << DescribeValue(p.Data()[static_cast<size_t>(bad)])
                         << " in parameter " << i << ", shape "
                         << ShapeToString(p.Shape());
  }
}

}  // namespace sthsl
