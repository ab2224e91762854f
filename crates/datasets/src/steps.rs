//! Real, executable step implementations for the real engine.
//!
//! These are the same transformations the sim pipelines model, but
//! operating on actual data: image decode/resize/center/crop, HTML →
//! BPE → embedding, audio decode → mel spectrogram, NILM container →
//! aggregation. Examples and integration tests run complete pipelines
//! through [`presto_pipeline::real::RealExecutor`] with these steps.

use presto_dsp::signal::nilm_aggregate;
use presto_dsp::stft::mel_spectrogram;
use presto_formats::audio::{adpcm, flac};
use presto_formats::container::ContainerReader;
use presto_formats::image::{jpg, png};
use presto_pipeline::{CostModel, Payload, PipelineError, Sample, SizeModel, Step, StepSpec};
use presto_storage::Nanos;
use presto_tensor::Tensor;
use presto_text::{BpeTokenizer, EmbeddingTable};
use rand::rngs::SmallRng;
use rand::Rng;
use std::sync::Arc;

fn mismatch(step: &str, expected: &'static str) -> PipelineError {
    PipelineError::PayloadMismatch {
        step: step.to_string(),
        expected,
    }
}

/// Which image codec a [`DecodeImage`] step expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageCodec {
    /// The lossy block-DCT codec (JPG stand-in).
    Jpg,
    /// The lossless filtered codec (PNG stand-in).
    Png,
}

/// Decode encoded image bytes into a pixel buffer.
#[derive(Debug, Clone, Copy)]
pub struct DecodeImage(pub ImageCodec);

impl Step for DecodeImage {
    fn spec(&self) -> StepSpec {
        let (per_byte, factor) = match self.0 {
            ImageCodec::Jpg => (25.0, 5.31),
            ImageCodec::Png => (13.0, 1.49),
        };
        StepSpec::native(
            "decoded",
            CostModel::new(0.0, per_byte, 0.0),
            SizeModel::scale(factor),
        )
    }

    fn apply(&self, sample: Sample, _rng: &mut SmallRng) -> Result<Sample, PipelineError> {
        let Payload::Bytes(bytes) = &sample.payload else {
            return Err(mismatch("decoded", "bytes"));
        };
        let image = match self.0 {
            ImageCodec::Jpg => jpg::decode(bytes),
            ImageCodec::Png => png::decode(bytes),
        }
        .map_err(|e| PipelineError::Decode(e.to_string()))?;
        Ok(Sample {
            key: sample.key,
            payload: Payload::Image(image),
        })
    }
}

/// Bilinear resize to a fixed resolution.
#[derive(Debug, Clone, Copy)]
pub struct Resize {
    /// Target width.
    pub width: usize,
    /// Target height.
    pub height: usize,
}

impl Step for Resize {
    fn spec(&self) -> StepSpec {
        let out = (self.width * self.height * 3) as f64;
        StepSpec::native(
            "resized",
            CostModel::new(0.0, 0.0, 9.0),
            SizeModel::fixed(out),
        )
    }

    fn apply(&self, sample: Sample, _rng: &mut SmallRng) -> Result<Sample, PipelineError> {
        let Payload::Image(image) = &sample.payload else {
            return Err(mismatch("resized", "image"));
        };
        Ok(Sample {
            key: sample.key,
            payload: Payload::Image(image.resize(self.width, self.height)),
        })
    }
}

/// RGB → greyscale (the Section 4.6 case-study step).
#[derive(Debug, Clone, Copy)]
pub struct Greyscale;

impl Step for Greyscale {
    fn spec(&self) -> StepSpec {
        StepSpec::native(
            "applied-greyscale",
            CostModel::new(0.0, 1.2, 0.0),
            SizeModel::scale(1.0 / 3.0),
        )
    }

    fn apply(&self, sample: Sample, _rng: &mut SmallRng) -> Result<Sample, PipelineError> {
        let Payload::Image(image) = &sample.payload else {
            return Err(mismatch("applied-greyscale", "image"));
        };
        Ok(Sample {
            key: sample.key,
            payload: Payload::Image(image.greyscale()),
        })
    }
}

/// Pixel centering: channels → f32 in [-1, 1], HWC tensor.
#[derive(Debug, Clone, Copy)]
pub struct PixelCenter;

impl Step for PixelCenter {
    fn spec(&self) -> StepSpec {
        StepSpec::native(
            "pixel-centered",
            CostModel::new(0.0, 4.1, 0.0),
            SizeModel::scale(4.0),
        )
    }

    fn apply(&self, sample: Sample, _rng: &mut SmallRng) -> Result<Sample, PipelineError> {
        let Payload::Image(image) = &sample.payload else {
            return Err(mismatch("pixel-centered", "image"));
        };
        let centered = image.pixel_center();
        let tensor = Tensor::from_vec(vec![image.height, image.width, image.channels], centered)
            .map_err(|e| PipelineError::Other(e.to_string()))?;
        Ok(Sample::from_tensors(sample.key, vec![tensor]))
    }
}

/// Random spatial crop of an HWC f32 tensor — non-deterministic, so it
/// must stay online (the paper's dotted step).
#[derive(Debug, Clone, Copy)]
pub struct RandomCrop {
    /// Crop width.
    pub width: usize,
    /// Crop height.
    pub height: usize,
}

impl Step for RandomCrop {
    fn spec(&self) -> StepSpec {
        StepSpec::native(
            "random-crop",
            CostModel::new(0.0, 0.75, 0.0),
            SizeModel::scale(0.766),
        )
        .non_deterministic()
    }

    fn apply(&self, sample: Sample, rng: &mut SmallRng) -> Result<Sample, PipelineError> {
        let Payload::Tensors(tensors) = &sample.payload else {
            return Err(mismatch("random-crop", "tensors"));
        };
        let [tensor] = tensors.as_slice() else {
            return Err(mismatch("random-crop", "single tensor"));
        };
        let [h, w, c] = *tensor.shape() else {
            return Err(mismatch("random-crop", "HWC tensor"));
        };
        if h < self.height || w < self.width {
            return Err(PipelineError::Other(format!(
                "crop {}x{} exceeds image {h}x{w}",
                self.height, self.width
            )));
        }
        let y0 = rng.gen_range(0..=h - self.height);
        let x0 = rng.gen_range(0..=w - self.width);
        // Copy whole rows of raw storage instead of round-tripping
        // through typed vectors: same bytes, no per-element decode or
        // re-encode on the hot path.
        let esize = tensor.dtype().size_bytes();
        let raw = tensor.bytes();
        let row_bytes = self.width * c * esize;
        let mut out = Vec::with_capacity(self.height * row_bytes);
        for y in y0..y0 + self.height {
            let start = (y * w + x0) * c * esize;
            out.extend_from_slice(&raw[start..start + row_bytes]);
        }
        presto_codecs::touch::copy(out.len());
        let cropped = Tensor::from_raw(tensor.dtype(), vec![self.height, self.width, c], out)
            .map_err(|e| PipelineError::Other(e.to_string()))?;
        Ok(Sample::from_tensors(sample.key, vec![cropped]))
    }
}

/// HTML → readable text (the NLP `decoded` step; GIL-like in the paper).
#[derive(Debug, Clone, Copy)]
pub struct HtmlDecode;

impl Step for HtmlDecode {
    fn spec(&self) -> StepSpec {
        StepSpec::global_locked(
            "decoded",
            CostModel::new(0.0, 3_890.0, 0.0),
            SizeModel::scale(0.0768),
            Nanos::from_millis(5),
        )
    }

    fn apply(&self, sample: Sample, _rng: &mut SmallRng) -> Result<Sample, PipelineError> {
        let Payload::Bytes(bytes) = &sample.payload else {
            return Err(mismatch("decoded", "bytes"));
        };
        let html = std::str::from_utf8(bytes)
            .map_err(|_| PipelineError::Decode("document is not UTF-8".into()))?;
        Ok(Sample {
            key: sample.key,
            payload: Payload::Text(presto_text::html::extract_text(html)),
        })
    }
}

/// Byte-pair encode text into i32 token ids.
#[derive(Clone)]
pub struct BpeEncode {
    /// Shared trained tokenizer.
    pub tokenizer: Arc<BpeTokenizer>,
}

impl Step for BpeEncode {
    fn spec(&self) -> StepSpec {
        StepSpec::global_locked(
            "bpe-encoded",
            CostModel::new(0.0, 550.0, 0.0),
            SizeModel::scale(1.089),
            Nanos::from_millis(1),
        )
    }

    fn apply(&self, sample: Sample, _rng: &mut SmallRng) -> Result<Sample, PipelineError> {
        let Payload::Text(text) = &sample.payload else {
            return Err(mismatch("bpe-encoded", "text"));
        };
        Ok(Sample {
            key: sample.key,
            payload: Payload::Tokens(self.tokenizer.encode(text)),
        })
    }
}

/// Token ids → stacked n×dim f32 embedding tensor.
#[derive(Clone)]
pub struct Embed {
    /// Shared embedding table.
    pub table: Arc<EmbeddingTable>,
}

impl Step for Embed {
    fn spec(&self) -> StepSpec {
        StepSpec::native(
            "embedded",
            CostModel::new(0.0, 0.0, 1.62),
            SizeModel::scale(758.6),
        )
    }

    fn apply(&self, sample: Sample, _rng: &mut SmallRng) -> Result<Sample, PipelineError> {
        let Payload::Tokens(tokens) = &sample.payload else {
            return Err(mismatch("embedded", "tokens"));
        };
        let flat = self.table.embed_sequence(tokens);
        let tensor = Tensor::from_vec(vec![tokens.len(), self.table.dim()], flat)
            .map_err(|e| PipelineError::Other(e.to_string()))?;
        Ok(Sample::from_tensors(sample.key, vec![tensor]))
    }
}

/// Which audio codec a [`DecodeAudio`] step expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AudioCodec {
    /// Lossy ADPCM (MP3 stand-in).
    Adpcm,
    /// Lossless LPC+Rice (FLAC stand-in).
    Flac,
}

/// Decode compressed audio bytes into a PCM waveform.
#[derive(Debug, Clone, Copy)]
pub struct DecodeAudio(pub AudioCodec);

impl Step for DecodeAudio {
    fn spec(&self) -> StepSpec {
        let (per_byte, factor) = match self.0 {
            AudioCodec::Adpcm => (406.0, 8.0),
            AudioCodec::Flac => (30.0, 2.0),
        };
        StepSpec::native(
            "decoded",
            CostModel::new(0.0, per_byte, 0.0),
            SizeModel::scale(factor),
        )
    }

    fn apply(&self, sample: Sample, _rng: &mut SmallRng) -> Result<Sample, PipelineError> {
        let Payload::Bytes(bytes) = &sample.payload else {
            return Err(mismatch("decoded", "bytes"));
        };
        let (samples, rate) = match self.0 {
            AudioCodec::Adpcm => adpcm::decode(bytes),
            AudioCodec::Flac => flac::decode(bytes),
        }
        .map_err(|e| PipelineError::Decode(e.to_string()))?;
        Ok(Sample {
            key: sample.key,
            payload: Payload::Audio(samples, rate),
        })
    }
}

/// Resample a waveform to a target rate (speech corpora arrive at
/// mixed rates; models expect one — typically 16 kHz).
#[derive(Debug, Clone, Copy)]
pub struct Resample {
    /// Target sample rate.
    pub to_rate: u32,
}

impl Step for Resample {
    fn spec(&self) -> StepSpec {
        // Size change depends on the source rate; declare the common
        // 48 kHz → 16 kHz case (factor 1/3) as the model.
        StepSpec::native(
            "resampled",
            CostModel::new(0.0, 2.0, 2.0),
            SizeModel::scale(1.0 / 3.0),
        )
    }

    fn apply(&self, sample: Sample, _rng: &mut SmallRng) -> Result<Sample, PipelineError> {
        let Payload::Audio(samples, rate) = &sample.payload else {
            return Err(mismatch("resampled", "audio"));
        };
        let resampled = presto_dsp::signal::resample_linear(samples, *rate, self.to_rate);
        Ok(Sample {
            key: sample.key,
            payload: Payload::Audio(resampled, self.to_rate),
        })
    }
}

/// Waveform → log-mel spectrogram (frames × n_mels f32).
#[derive(Debug, Clone, Copy)]
pub struct Spectrogram {
    /// Mel bins (the paper: 80).
    pub n_mels: usize,
}

impl Step for Spectrogram {
    fn spec(&self) -> StepSpec {
        StepSpec::native(
            "spectrogram-encoded",
            CostModel::new(0.0, 126.0, 0.0),
            SizeModel::scale(1.0),
        )
    }

    fn apply(&self, sample: Sample, _rng: &mut SmallRng) -> Result<Sample, PipelineError> {
        let Payload::Audio(samples, rate) = &sample.payload else {
            return Err(mismatch("spectrogram-encoded", "audio"));
        };
        let signal: Vec<f64> = samples.iter().map(|&s| f64::from(s) / 32_768.0).collect();
        let features = mel_spectrogram(&signal, *rate, self.n_mels);
        let frames = features.len();
        let flat: Vec<f32> = features.into_iter().flatten().collect();
        let tensor = Tensor::from_vec(vec![frames, self.n_mels], flat)
            .map_err(|e| PipelineError::Other(e.to_string()))?;
        Ok(Sample::from_tensors(sample.key, vec![tensor]))
    }
}

/// Extract voltage/current signals from a chunked container window.
#[derive(Debug, Clone, Copy)]
pub struct NilmDecode;

impl Step for NilmDecode {
    fn spec(&self) -> StepSpec {
        StepSpec::global_locked(
            "decoded",
            CostModel::new(0.0, 20.0, 0.0),
            SizeModel::scale(6.64),
            Nanos::from_millis(2),
        )
        .with_rows(2.0)
    }

    fn apply(&self, sample: Sample, _rng: &mut SmallRng) -> Result<Sample, PipelineError> {
        let Payload::Bytes(bytes) = &sample.payload else {
            return Err(mismatch("decoded", "bytes"));
        };
        let reader =
            ContainerReader::open(bytes).map_err(|e| PipelineError::Decode(e.to_string()))?;
        let voltage = reader
            .read_all_f64("voltage")
            .map_err(|e| PipelineError::Decode(e.to_string()))?;
        let current = reader
            .read_all_f64("current")
            .map_err(|e| PipelineError::Decode(e.to_string()))?;
        let n = voltage.len();
        if current.len() != n {
            return Err(PipelineError::Decode(
                "voltage/current length mismatch".into(),
            ));
        }
        let v =
            Tensor::from_vec(vec![n], voltage).map_err(|e| PipelineError::Other(e.to_string()))?;
        let i =
            Tensor::from_vec(vec![n], current).map_err(|e| PipelineError::Other(e.to_string()))?;
        Ok(Sample::from_tensors(sample.key, vec![v, i]))
    }
}

/// NILM aggregation: reactive power + current RMS + CUSUM with a fixed
/// period, producing the 3 × m float64 model input.
#[derive(Debug, Clone, Copy)]
pub struct NilmAggregate {
    /// Samples per mains period (the paper: 128).
    pub period: usize,
}

impl Step for NilmAggregate {
    fn spec(&self) -> StepSpec {
        StepSpec::global_locked(
            "aggregated",
            CostModel::new(0.0, 2.05, 0.0),
            SizeModel::fixed(12_000.0),
            Nanos::from_micros(500),
        )
        .with_rows(3.0)
    }

    fn apply(&self, sample: Sample, _rng: &mut SmallRng) -> Result<Sample, PipelineError> {
        let Payload::Tensors(tensors) = &sample.payload else {
            return Err(mismatch("aggregated", "tensors"));
        };
        let [v, i] = tensors.as_slice() else {
            return Err(mismatch("aggregated", "two tensors (V, I)"));
        };
        let voltage: Vec<f64> = v.iter_f64().collect();
        let current: Vec<f64> = i.iter_f64().collect();
        let [reactive, rms, cusum] = nilm_aggregate(&voltage, &current, self.period);
        let m = reactive.len();
        let mut flat = Vec::with_capacity(3 * m);
        flat.extend(reactive);
        flat.extend(rms);
        flat.extend(cusum);
        let tensor =
            Tensor::from_vec(vec![3, m], flat).map_err(|e| PipelineError::Other(e.to_string()))?;
        Ok(Sample::from_tensors(sample.key, vec![tensor]))
    }
}

/// Build the fully-executable CV pipeline over the real engine.
pub fn executable_cv_pipeline(resize_to: usize, crop_to: usize) -> presto_pipeline::Pipeline {
    presto_pipeline::Pipeline::new("CV-real")
        .push_step(Arc::new(DecodeImage(ImageCodec::Jpg)))
        .push_step(Arc::new(Resize {
            width: resize_to,
            height: resize_to,
        }))
        .push_step(Arc::new(PixelCenter))
        .push_step(Arc::new(RandomCrop {
            width: crop_to,
            height: crop_to,
        }))
}

/// Build the fully-executable NLP pipeline.
pub fn executable_nlp_pipeline(
    tokenizer: Arc<BpeTokenizer>,
    table: Arc<EmbeddingTable>,
) -> presto_pipeline::Pipeline {
    presto_pipeline::Pipeline::new("NLP-real")
        .push_step(Arc::new(HtmlDecode))
        .push_step(Arc::new(BpeEncode { tokenizer }))
        .push_step(Arc::new(Embed { table }))
}

/// Build the fully-executable audio pipeline.
pub fn executable_audio_pipeline(codec: AudioCodec, n_mels: usize) -> presto_pipeline::Pipeline {
    let name = match codec {
        AudioCodec::Adpcm => "MP3-real",
        AudioCodec::Flac => "FLAC-real",
    };
    presto_pipeline::Pipeline::new(name)
        .push_step(Arc::new(DecodeAudio(codec)))
        .push_step(Arc::new(Spectrogram { n_mels }))
}

/// Build the fully-executable NILM pipeline.
pub fn executable_nilm_pipeline(period: usize) -> presto_pipeline::Pipeline {
    presto_pipeline::Pipeline::new("NILM-real")
        .push_step(Arc::new(NilmDecode))
        .push_step(Arc::new(NilmAggregate { period }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use presto_formats::container::ContainerWriter;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    #[test]
    fn cv_steps_chain_end_to_end() {
        let img = generators::natural_image(300, 240, 1);
        let encoded = jpg::encode(&img, 85);
        let mut sample = Sample::from_bytes(0, encoded);
        let mut rng = rng();
        for step in [
            &DecodeImage(ImageCodec::Jpg) as &dyn Step,
            &Resize {
                width: 256,
                height: 256,
            },
            &PixelCenter,
            &RandomCrop {
                width: 224,
                height: 224,
            },
        ] {
            sample = step.apply(sample, &mut rng).unwrap();
        }
        let Payload::Tensors(ts) = &sample.payload else {
            panic!()
        };
        assert_eq!(ts[0].shape(), &[224, 224, 3]);
    }

    #[test]
    fn greyscale_between_resize_and_center() {
        let img = generators::natural_image(128, 128, 2);
        let sample = Sample {
            key: 0,
            payload: Payload::Image(img),
        };
        let mut rng = rng();
        let grey = Greyscale.apply(sample, &mut rng).unwrap();
        let centered = PixelCenter.apply(grey, &mut rng).unwrap();
        let Payload::Tensors(ts) = &centered.payload else {
            panic!()
        };
        assert_eq!(ts[0].shape(), &[128, 128, 1]);
    }

    #[test]
    fn nlp_steps_chain_end_to_end() {
        let html = generators::html_document(5, 3);
        let tokenizer = Arc::new(BpeTokenizer::train(
            "data model training pipeline throughput storage data model the a of",
            100,
        ));
        let table = Arc::new(EmbeddingTable::new(tokenizer.vocab_size().max(16), 32, 9));
        let mut sample = Sample::from_bytes(0, html.into_bytes());
        let mut rng = rng();
        sample = HtmlDecode.apply(sample, &mut rng).unwrap();
        sample = BpeEncode { tokenizer }.apply(sample, &mut rng).unwrap();
        sample = Embed { table }.apply(sample, &mut rng).unwrap();
        let Payload::Tensors(ts) = &sample.payload else {
            panic!()
        };
        assert_eq!(ts[0].shape()[1], 32);
        assert!(ts[0].shape()[0] > 10, "should embed many tokens");
    }

    #[test]
    fn audio_steps_chain_end_to_end() {
        let pcm = generators::speech_like(1.2, 16_000, 4);
        for (codec, bytes) in [
            (AudioCodec::Adpcm, adpcm::encode(&pcm, 16_000)),
            (AudioCodec::Flac, flac::encode(&pcm, 16_000)),
        ] {
            let mut rng = rng();
            let sample = Sample::from_bytes(0, bytes);
            let decoded = DecodeAudio(codec).apply(sample, &mut rng).unwrap();
            let spec = Spectrogram { n_mels: 80 }.apply(decoded, &mut rng).unwrap();
            let Payload::Tensors(ts) = &spec.payload else {
                panic!()
            };
            assert_eq!(ts[0].shape()[1], 80);
            // 1.2 s at 16 kHz → (19200-320)/160+1 = 119 frames.
            assert_eq!(ts[0].shape()[0], 119);
        }
    }

    #[test]
    fn resample_step_normalizes_rate_before_spectrogram() {
        let pcm48 = generators::speech_like(0.5, 48_000, 11);
        let sample = Sample {
            key: 0,
            payload: Payload::Audio(pcm48, 48_000),
        };
        let mut rng = rng();
        let resampled = Resample { to_rate: 16_000 }
            .apply(sample, &mut rng)
            .unwrap();
        let Payload::Audio(samples, rate) = &resampled.payload else {
            panic!()
        };
        assert_eq!(*rate, 16_000);
        assert_eq!(samples.len(), 8_000);
        let spec = Spectrogram { n_mels: 40 }
            .apply(resampled, &mut rng)
            .unwrap();
        let Payload::Tensors(ts) = &spec.payload else {
            panic!()
        };
        // 0.5 s at 16 kHz → (8000-320)/160+1 = 49 frames.
        assert_eq!(ts[0].shape(), &[49, 40]);
    }

    #[test]
    fn nilm_steps_chain_end_to_end() {
        let (v, i) = generators::electrical_window(10.0, 6_400, 5);
        let mut writer = ContainerWriter::new();
        writer.append_chunk("voltage", &Tensor::from_vec(vec![v.len()], v).unwrap());
        writer.append_chunk("current", &Tensor::from_vec(vec![i.len()], i).unwrap());
        let bytes = writer.finish();
        let mut rng = rng();
        let sample = Sample::from_bytes(0, bytes);
        let decoded = NilmDecode.apply(sample, &mut rng).unwrap();
        let aggregated = NilmAggregate { period: 128 }
            .apply(decoded, &mut rng)
            .unwrap();
        let Payload::Tensors(ts) = &aggregated.payload else {
            panic!()
        };
        assert_eq!(ts[0].shape(), &[3, 500]);
    }

    #[test]
    fn random_crop_varies_with_rng_but_is_seed_stable() {
        let img = generators::natural_image(64, 64, 7);
        let sample = PixelCenter
            .apply(
                Sample {
                    key: 0,
                    payload: Payload::Image(img),
                },
                &mut rng(),
            )
            .unwrap();
        let crop = RandomCrop {
            width: 32,
            height: 32,
        };
        let mut r1 = SmallRng::seed_from_u64(11);
        let mut r2 = SmallRng::seed_from_u64(11);
        let mut r3 = SmallRng::seed_from_u64(12);
        let a = crop.apply(sample.clone(), &mut r1).unwrap();
        let b = crop.apply(sample.clone(), &mut r2).unwrap();
        let c = crop.apply(sample, &mut r3).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn payload_mismatches_are_reported() {
        let mut rng = rng();
        let text_sample = Sample {
            key: 0,
            payload: Payload::Text("x".into()),
        };
        assert!(DecodeImage(ImageCodec::Jpg)
            .apply(text_sample.clone(), &mut rng)
            .is_err());
        assert!(Resize {
            width: 8,
            height: 8
        }
        .apply(text_sample.clone(), &mut rng)
        .is_err());
        assert!(DecodeAudio(AudioCodec::Flac)
            .apply(text_sample.clone(), &mut rng)
            .is_err());
        assert!(NilmDecode.apply(text_sample, &mut rng).is_err());
    }
}
