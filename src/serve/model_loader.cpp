#include "serve/model_loader.hpp"

#include "ckpt/state_io.hpp"

namespace sagnn::serve {

ModelLoader::ModelLoader(std::istream& in) {
  ckpt::Deserializer d(in);

  // The prologue every trainer writes, in fixed order.
  prologue_ = ckpt::read_prologue(d);
  if (prologue_.config.gcn.dims.size() < 2) {
    throw ckpt::CheckpointFormatError(
        "section 'config': model has no layer dimensions");
  }

  // Everything after the prologue is mode-specific; take what serving
  // needs, skip (with CRC verification) what it does not.
  bool have_model = false;
  while (d.peek_section() != ckpt::kEndSection) {
    const std::string& name = d.peek_section();
    if (name == "progress") {
      epochs_trained_ = ckpt::read_progress(d, metrics_);
    } else if (name == "model") {
      model_ = GcnModel(prologue_.config.gcn);
      d.enter_section("model");
      ckpt::read_model_into(d, model_);
      d.leave_section();
      have_model = true;
    } else {
      skipped_.push_back(d.skip_section());
    }
  }
  d.finish();
  if (!have_model) {
    throw ckpt::CheckpointFormatError(
        "checkpoint holds no 'model' section — nothing to serve");
  }
}

}  // namespace sagnn::serve
