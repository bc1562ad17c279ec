//! Saving and loading trained parameters and training checkpoints.
//!
//! A trained model's state is the ordered list of its parameter tensors
//! (the order [`Layer::params_mut`] returns — deterministic for a given
//! architecture). Two self-describing binary layouts exist:
//!
//! ```text
//! v1 (legacy, still loadable):
//!   magic "PLCN" | version=1 u32 | param count u32 |
//!     per param: rank u32, dims u32…, f32 data (little endian)
//!
//! v2 (current):
//!   magic "PLCN" | version=2 u32 | epoch u32 | learning rate f32 |
//!   param count u32 |
//!     per param: rank u32, dims u32…, f32 value data,
//!                state count u32,
//!                per state slot: f32 data (value's shape) |
//!   crc32 u32 of every preceding byte
//! ```
//!
//! v2 adds what fault-tolerant resume needs: the epoch the checkpoint was
//! taken after, the optimizer's learning rate, the per-parameter optimizer
//! state slots (RMSprop moving averages etc.), and an IEEE CRC-32 so a
//! truncated or bit-flipped file is rejected before any model state is
//! touched. Both versions load with parse-then-commit semantics: a failed
//! load never leaves the model half-written. Non-finite values in a
//! checkpoint are rejected at load time for both versions.
//!
//! [`save_checkpoint`] writes atomically (temp file + rename), so a crash
//! mid-write leaves either the previous checkpoint or a stray `.tmp` —
//! never a torn file under the real name. Known limitations: BatchNorm
//! running statistics are internal layer state, not parameters, and are
//! not serialised; they only affect evaluation-mode outputs. Adam's step
//! counter is not serialised either, so an Adam resume restarts bias
//! correction; RMSprop, SGD and AdaDelta resumes reproduce the training
//! trajectory exactly.
//!
//! Loaded optimizer state goes through
//! [`Param::set_state`](crate::Param::set_state), which widens each
//! parameter's `live` hull over every nonzero slot element, so the
//! optimizers' hull sweeps still cover all of it.

use crate::Layer;
use pelican_tensor::Tensor;
use std::error::Error;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"PLCN";
const V1: u32 = 1;
const V2: u32 = 2;

/// Error loading or saving model parameters.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem failure.
    File(std::io::Error),
    /// The data is not a parameter file or is truncated/corrupt.
    Format(String),
    /// The checkpoint does not match the receiving model's architecture.
    ShapeMismatch(String),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::File(e) => write!(f, "parameter file i/o failed: {e}"),
            IoError::Format(m) => write!(f, "malformed parameter data: {m}"),
            IoError::ShapeMismatch(m) => write!(f, "checkpoint/model mismatch: {m}"),
        }
    }
}

impl Error for IoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IoError::File(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::File(e)
    }
}

/// Training-loop metadata carried by a v2 checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointMeta {
    /// 1-based epoch the checkpoint was taken after (0 = untrained).
    pub epoch: usize,
    /// Optimizer learning rate at save time.
    pub learning_rate: f32,
}

/// IEEE CRC-32 (reflected, polynomial 0xEDB88320), bitwise — checkpoint
/// files are small enough that a table-free implementation is fine.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_tensor_data(buf: &mut Vec<u8>, t: &Tensor) {
    for &v in t.as_slice() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Takes the next 4 bytes off the front of `buf`. Callers check
/// `buf.len()` first, so that a short buffer is an [`IoError`], not a
/// panic.
fn take4(buf: &mut &[u8]) -> [u8; 4] {
    let (head, rest) = buf.split_first_chunk::<4>().expect("length checked");
    *buf = rest;
    *head
}

fn get_u32(buf: &mut &[u8]) -> u32 {
    u32::from_le_bytes(take4(buf))
}

fn get_f32(buf: &mut &[u8]) -> f32 {
    f32::from_le_bytes(take4(buf))
}

/// Serialises a model's parameters, optimizer state and `meta` to v2
/// bytes.
pub fn checkpoint_to_bytes(model: &mut dyn Layer, meta: CheckpointMeta) -> Vec<u8> {
    let params = model.params_mut();
    let mut buf = MAGIC.to_vec();
    put_u32(&mut buf, V2);
    put_u32(&mut buf, meta.epoch as u32);
    buf.extend_from_slice(&meta.learning_rate.to_le_bytes());
    put_u32(&mut buf, params.len() as u32);
    for p in params {
        let shape = p.value.shape();
        put_u32(&mut buf, shape.len() as u32);
        for &d in shape {
            put_u32(&mut buf, d as u32);
        }
        put_tensor_data(&mut buf, &p.value);
        put_u32(&mut buf, p.state().len() as u32);
        for s in p.state() {
            put_tensor_data(&mut buf, s);
        }
    }
    let crc = crc32(&buf);
    put_u32(&mut buf, crc);
    buf
}

/// Serialises a model's parameters to bytes (v2, epoch 0 — use
/// [`checkpoint_to_bytes`] to record training progress).
pub fn params_to_bytes(model: &mut dyn Layer) -> Vec<u8> {
    checkpoint_to_bytes(
        model,
        CheckpointMeta {
            epoch: 0,
            learning_rate: 0.0,
        },
    )
}

/// One parsed parameter entry: value plus optimizer state slots.
struct ParsedParam {
    value: Tensor,
    state: Vec<Tensor>,
}

fn read_exact_f32(buf: &mut &[u8], shape: &[usize], what: &str) -> Result<Tensor, IoError> {
    // Checked, so a crafted shape whose byte size overflows `usize` reads
    // as truncated data instead of panicking or wrapping to a small size.
    let n_bytes = shape.iter().try_fold(4usize, |n, &d| n.checked_mul(d));
    let Some(n_bytes) = n_bytes.filter(|&n| n <= buf.len()) else {
        return Err(IoError::Format(format!("truncated data of {what}")));
    };
    let data: Vec<f32> = (0..n_bytes / 4).map(|_| get_f32(buf)).collect();
    if data.iter().any(|v| !v.is_finite()) {
        return Err(IoError::Format(format!("non-finite value in {what}")));
    }
    Tensor::from_vec(shape.to_vec(), data)
        .map_err(|e| IoError::Format(format!("bad shape for {what}: {e}")))
}

fn read_shape(buf: &mut &[u8], what: &str) -> Result<Vec<usize>, IoError> {
    if buf.len() < 4 {
        return Err(IoError::Format(format!("truncated at {what}")));
    }
    let rank = get_u32(buf) as usize;
    if rank > 8 {
        return Err(IoError::Format(format!(
            "implausible rank {rank} for {what}"
        )));
    }
    if buf.len() < rank * 4 {
        return Err(IoError::Format(format!("truncated shape of {what}")));
    }
    Ok((0..rank).map(|_| get_u32(buf) as usize).collect())
}

/// Parses the whole payload into memory without touching any model; the
/// version field selects whether meta + optimizer state + CRC are
/// expected.
fn parse(data: &[u8]) -> Result<(CheckpointMeta, Vec<ParsedParam>), IoError> {
    if data.len() < 12 || &data[..4] != MAGIC {
        return Err(IoError::Format("missing PLCN magic".into()));
    }
    let mut buf = &data[4..];
    let version = get_u32(&mut buf);
    match version {
        V1 => parse_v1(buf),
        V2 => {
            // Integrity first: the trailing CRC covers every byte before it.
            if data.len() < 12 + 4 {
                return Err(IoError::Format("v2 payload too short for CRC".into()));
            }
            let body = &data[..data.len() - 4];
            let stored = get_u32(&mut &data[data.len() - 4..]);
            let actual = crc32(body);
            if stored != actual {
                return Err(IoError::Format(format!(
                    "CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"
                )));
            }
            let buf = &body[8..]; // past magic + version
            parse_v2(buf)
        }
        v => Err(IoError::Format(format!("unsupported version {v}"))),
    }
}

fn parse_v1(mut buf: &[u8]) -> Result<(CheckpointMeta, Vec<ParsedParam>), IoError> {
    if buf.len() < 4 {
        return Err(IoError::Format("truncated v1 header".into()));
    }
    let count = get_u32(&mut buf) as usize;
    let mut params = Vec::with_capacity(count);
    for i in 0..count {
        let shape = read_shape(&mut buf, &format!("parameter {i}"))?;
        let value = read_exact_f32(&mut buf, &shape, &format!("parameter {i}"))?;
        params.push(ParsedParam {
            value,
            state: Vec::new(),
        });
    }
    if !buf.is_empty() {
        return Err(IoError::Format(format!(
            "{} trailing bytes after last parameter",
            buf.len()
        )));
    }
    Ok((
        CheckpointMeta {
            epoch: 0,
            learning_rate: 0.0,
        },
        params,
    ))
}

fn parse_v2(mut buf: &[u8]) -> Result<(CheckpointMeta, Vec<ParsedParam>), IoError> {
    if buf.len() < 12 {
        return Err(IoError::Format("truncated v2 header".into()));
    }
    let epoch = get_u32(&mut buf) as usize;
    let learning_rate = get_f32(&mut buf);
    if !learning_rate.is_finite() {
        return Err(IoError::Format("non-finite learning rate".into()));
    }
    let count = get_u32(&mut buf) as usize;
    let mut params = Vec::with_capacity(count);
    for i in 0..count {
        let shape = read_shape(&mut buf, &format!("parameter {i}"))?;
        let value = read_exact_f32(&mut buf, &shape, &format!("parameter {i}"))?;
        if buf.len() < 4 {
            return Err(IoError::Format(format!(
                "truncated state count of parameter {i}"
            )));
        }
        let n_state = get_u32(&mut buf) as usize;
        if n_state > 4 {
            return Err(IoError::Format(format!(
                "implausible state count {n_state} for parameter {i}"
            )));
        }
        let mut state = Vec::with_capacity(n_state);
        for s in 0..n_state {
            state.push(read_exact_f32(
                &mut buf,
                &shape,
                &format!("state {s} of parameter {i}"),
            )?);
        }
        params.push(ParsedParam { value, state });
    }
    if !buf.is_empty() {
        return Err(IoError::Format(format!(
            "{} trailing bytes after last parameter",
            buf.len()
        )));
    }
    Ok((
        CheckpointMeta {
            epoch,
            learning_rate,
        },
        params,
    ))
}

/// Validates `parsed` against the model's parameters, then commits values
/// and optimizer state. Called only after a full successful parse, so the
/// model is never left half-written.
fn commit(model: &mut dyn Layer, parsed: Vec<ParsedParam>) -> Result<(), IoError> {
    let mut params = model.params_mut();
    if parsed.len() != params.len() {
        return Err(IoError::ShapeMismatch(format!(
            "checkpoint has {} parameters, model has {}",
            parsed.len(),
            params.len()
        )));
    }
    for (i, (p, entry)) in params.iter().zip(&parsed).enumerate() {
        if entry.value.shape() != p.value.shape() {
            return Err(IoError::ShapeMismatch(format!(
                "parameter {i}: checkpoint {:?} vs model {:?}",
                entry.value.shape(),
                p.value.shape()
            )));
        }
    }
    for (p, entry) in params.iter_mut().zip(parsed) {
        p.value = entry.value;
        p.set_state(entry.state);
    }
    Ok(())
}

/// Restores a model's parameters (and, for v2 data, optimizer state) from
/// bytes, returning the checkpoint metadata (zeros for v1 data).
///
/// # Errors
///
/// Returns [`IoError::Format`] for corrupt, truncated, CRC-failing or
/// non-finite data and [`IoError::ShapeMismatch`] when the payload does not
/// match the receiving model. On error the model is unmodified.
pub fn checkpoint_from_bytes(
    model: &mut dyn Layer,
    data: &[u8],
) -> Result<CheckpointMeta, IoError> {
    let (meta, parsed) = parse(data)?;
    commit(model, parsed)?;
    Ok(meta)
}

/// Restores a model's parameters from bytes produced by
/// [`params_to_bytes`] (either format version).
///
/// # Errors
///
/// See [`checkpoint_from_bytes`].
pub fn params_from_bytes(model: &mut dyn Layer, data: &[u8]) -> Result<(), IoError> {
    checkpoint_from_bytes(model, data).map(|_| ())
}

/// Saves a model's parameters to `path`.
///
/// # Errors
///
/// Returns [`IoError::File`] on filesystem failure.
pub fn save_params(model: &mut dyn Layer, path: impl AsRef<Path>) -> Result<(), IoError> {
    fs::write(path, params_to_bytes(model))?;
    Ok(())
}

/// Loads a model's parameters from `path`.
///
/// # Errors
///
/// See [`params_from_bytes`]; additionally [`IoError::File`] on filesystem
/// failure.
pub fn load_params(model: &mut dyn Layer, path: impl AsRef<Path>) -> Result<(), IoError> {
    let data = fs::read(path)?;
    params_from_bytes(model, &data)
}

/// Atomically saves a v2 checkpoint to `path`: the bytes go to
/// `<path>.tmp` first and are renamed into place, so a crash mid-write
/// never leaves a torn file under the final name.
///
/// # Errors
///
/// Returns [`IoError::File`] on filesystem failure.
pub fn save_checkpoint(
    model: &mut dyn Layer,
    meta: CheckpointMeta,
    path: impl AsRef<Path>,
) -> Result<(), IoError> {
    let path = path.as_ref();
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, checkpoint_to_bytes(model, meta))?;
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Loads a checkpoint (either version) from `path`, restoring parameters
/// and optimizer state and returning its metadata.
///
/// # Errors
///
/// See [`checkpoint_from_bytes`]; additionally [`IoError::File`] on
/// filesystem failure.
pub fn load_checkpoint(
    model: &mut dyn Layer,
    path: impl AsRef<Path>,
) -> Result<CheckpointMeta, IoError> {
    let data = fs::read(path)?;
    checkpoint_from_bytes(model, &data)
}

/// Finds the newest checkpoint in `dir` that loads cleanly into `model`,
/// restores it, and returns its path and metadata. Files are tried in
/// descending filename order (checkpoint names embed the zero-padded
/// epoch), so a corrupt or torn newest file falls back to the one before
/// it. Returns `Ok(None)` when the directory is missing or holds no
/// loadable checkpoint.
///
/// # Errors
///
/// Returns [`IoError::File`] only for directory-listing failures other
/// than the directory not existing.
pub fn resume_latest(
    model: &mut dyn Layer,
    dir: impl AsRef<Path>,
) -> Result<Option<(PathBuf, CheckpointMeta)>, IoError> {
    let dir = dir.as_ref();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(IoError::File(e)),
    };
    let mut candidates: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "plcn"))
        .collect();
    candidates.sort();
    for path in candidates.into_iter().rev() {
        if let Ok(meta) = load_checkpoint(model, &path) {
            return Ok(Some((path, meta)));
        }
    }
    Ok(None)
}

/// Conventional checkpoint filename for an epoch: `ckpt-00042.plcn`.
pub fn checkpoint_filename(epoch: usize) -> String {
    format!("ckpt-{epoch:05}.plcn")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Optimizer, RmsProp};
    use crate::{Dense, Layer, Mode, Sequential};
    use pelican_tensor::{SeededRng, Tensor};

    fn net(seed: u64) -> Sequential {
        let mut rng = SeededRng::new(seed);
        let mut s = Sequential::new();
        s.push(Dense::new(3, 4, &mut rng));
        s.push(Dense::new(4, 2, &mut rng));
        s
    }

    /// One RMSprop step so params carry optimizer state.
    fn step_once(model: &mut Sequential) {
        let x = Tensor::ones(vec![2, 3]);
        let out = model.forward(&x, Mode::Train);
        model.backward(&Tensor::ones(out.shape().to_vec()));
        RmsProp::new(0.01).step(&mut model.params_mut());
    }

    #[test]
    fn round_trip_restores_exact_outputs() {
        let mut original = net(1);
        let mut restored = net(2); // different init
        let x = Tensor::ones(vec![2, 3]);
        let y_original = original.forward(&x, Mode::Eval);
        assert_ne!(y_original, restored.forward(&x, Mode::Eval));

        let bytes = params_to_bytes(&mut original);
        params_from_bytes(&mut restored, &bytes).expect("load");
        assert_eq!(y_original, restored.forward(&x, Mode::Eval));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("pelican-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.plcn");
        let mut a = net(3);
        save_params(&mut a, &path).expect("save");
        let mut b = net(4);
        load_params(&mut b, &path).expect("load");
        let x = Tensor::ones(vec![1, 3]);
        assert_eq!(a.forward(&x, Mode::Eval), b.forward(&x, Mode::Eval));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_architecture_is_rejected() {
        let mut a = net(1);
        let bytes = params_to_bytes(&mut a);
        let mut rng = SeededRng::new(0);
        let mut wrong = Sequential::new();
        wrong.push(Dense::new(3, 5, &mut rng)); // different shape
        wrong.push(Dense::new(5, 2, &mut rng));
        let err = params_from_bytes(&mut wrong, &bytes).unwrap_err();
        assert!(matches!(err, IoError::ShapeMismatch(_)), "{err}");

        let mut fewer = Sequential::new();
        fewer.push(Dense::new(3, 4, &mut rng));
        let err = params_from_bytes(&mut fewer, &bytes).unwrap_err();
        assert!(matches!(err, IoError::ShapeMismatch(_)), "{err}");
    }

    #[test]
    fn corrupt_data_is_rejected() {
        let mut m = net(1);
        assert!(matches!(
            params_from_bytes(&mut m, b"nope"),
            Err(IoError::Format(_))
        ));
        let mut bytes = params_to_bytes(&mut m);
        bytes.truncate(bytes.len() - 3);
        assert!(matches!(
            params_from_bytes(&mut m, &bytes),
            Err(IoError::Format(_))
        ));
        let mut extended = params_to_bytes(&mut m);
        extended.extend_from_slice(&[0; 8]);
        assert!(matches!(
            params_from_bytes(&mut m, &extended),
            Err(IoError::Format(_))
        ));
    }

    #[test]
    fn bit_flip_fails_crc_and_leaves_model_untouched() {
        let mut a = net(5);
        let mut bytes = checkpoint_to_bytes(
            &mut a,
            CheckpointMeta {
                epoch: 3,
                learning_rate: 0.01,
            },
        );
        // Flip one payload bit (inside the first parameter's data).
        bytes[20] ^= 0x10;
        let mut b = net(6);
        let before = params_to_bytes(&mut b);
        let err = checkpoint_from_bytes(&mut b, &bytes).unwrap_err();
        assert!(matches!(err, IoError::Format(_)), "{err}");
        assert!(err.to_string().contains("CRC"), "{err}");
        assert_eq!(params_to_bytes(&mut b), before, "model was modified");
    }

    #[test]
    fn checkpoint_round_trip_restores_meta_and_optimizer_state() {
        let mut a = net(7);
        step_once(&mut a);
        let meta = CheckpointMeta {
            epoch: 12,
            learning_rate: 0.005,
        };
        let bytes = checkpoint_to_bytes(&mut a, meta);
        let mut b = net(8);
        let loaded = checkpoint_from_bytes(&mut b, &bytes).expect("load");
        assert_eq!(loaded, meta);
        for (pa, pb) in a.params_mut().iter().zip(b.params_mut().iter()) {
            assert_eq!(pa.value, pb.value);
            assert_eq!(pa.state(), pb.state());
        }
    }

    /// Hand-builds a v1 payload for `model`.
    fn v1_bytes(model: &mut Sequential) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        put_u32(&mut buf, V1);
        let params = model.params_mut();
        put_u32(&mut buf, params.len() as u32);
        for p in params {
            let shape = p.value.shape();
            put_u32(&mut buf, shape.len() as u32);
            for &d in shape {
                put_u32(&mut buf, d as u32);
            }
            put_tensor_data(&mut buf, &p.value);
        }
        buf
    }

    #[test]
    fn legacy_v1_files_still_load() {
        let mut a = net(9);
        let bytes = v1_bytes(&mut a);
        let mut b = net(10);
        let meta = checkpoint_from_bytes(&mut b, &bytes).expect("v1 load");
        assert_eq!(meta.epoch, 0);
        let x = Tensor::ones(vec![1, 3]);
        assert_eq!(a.forward(&x, Mode::Eval), b.forward(&x, Mode::Eval));
    }

    /// Loads `data` into `model`, expecting a format error; returns the
    /// message with any digits dropped, so one message per truncation
    /// site remains.
    fn format_error_kind(model: &mut Sequential, data: &[u8], label: &str) -> String {
        match checkpoint_from_bytes(model, data) {
            Err(IoError::Format(m)) => m.chars().filter(|c| !c.is_ascii_digit()).collect(),
            other => panic!("{label}: expected a format error, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_is_rejected_without_side_effects() {
        let mut a = net(16);
        step_once(&mut a); // so the v2 body carries optimizer state slots
        let v1 = v1_bytes(&mut a);
        let v2 = checkpoint_to_bytes(
            &mut a,
            CheckpointMeta {
                epoch: 4,
                learning_rate: 0.01,
            },
        );
        let mut b = net(17);
        let before = params_to_bytes(&mut b);

        let mut v1_kinds = std::collections::BTreeSet::new();
        for cut in 0..v1.len() {
            v1_kinds.insert(format_error_kind(
                &mut b,
                &v1[..cut],
                &format!("v1 cut {cut}"),
            ));
        }
        // Each v2 prefix gets a fresh, valid CRC, so the parser itself
        // (not the integrity check) meets the truncation.
        let body = &v2[..v2.len() - 4];
        let mut v2_kinds = std::collections::BTreeSet::new();
        for cut in 0..body.len() {
            let mut data = body[..cut].to_vec();
            let crc = crc32(&data);
            put_u32(&mut data, crc);
            v2_kinds.insert(format_error_kind(&mut b, &data, &format!("v2 cut {cut}")));
        }
        assert_eq!(params_to_bytes(&mut b), before, "model was modified");

        for kind in [
            "truncated at parameter ",
            "truncated shape of parameter ",
            "truncated data of parameter ",
        ] {
            assert!(
                v1_kinds.contains(kind),
                "v1 never hit {kind:?}: {v1_kinds:?}"
            );
            assert!(
                v2_kinds.contains(kind),
                "v2 never hit {kind:?}: {v2_kinds:?}"
            );
        }
        for kind in [
            "truncated v header",
            "truncated state count of parameter ",
            "truncated data of state  of parameter ",
        ] {
            assert!(
                v2_kinds.contains(kind),
                "v2 never hit {kind:?}: {v2_kinds:?}"
            );
        }
    }

    #[test]
    fn overflowing_shape_is_rejected() {
        // One rank-4 parameter of 2^16 per dimension: 2^64 elements, which
        // wraps to 0 in unchecked `usize` arithmetic.
        let mut data = MAGIC.to_vec();
        for v in [V1, 1, 4, 1 << 16, 1 << 16, 1 << 16, 1 << 16] {
            put_u32(&mut data, v);
        }
        let mut m = net(18);
        let err = checkpoint_from_bytes(&mut m, &data).unwrap_err();
        assert!(err.to_string().contains("truncated data"), "{err}");
    }

    #[test]
    fn non_finite_params_are_rejected() {
        let mut a = net(11);
        a.params_mut()[0].value.as_mut_slice()[0] = f32::NAN;
        let bytes = params_to_bytes(&mut a);
        let mut b = net(12);
        let err = params_from_bytes(&mut b, &bytes).unwrap_err();
        assert!(matches!(err, IoError::Format(_)), "{err}");
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn atomic_save_and_resume_latest() {
        let dir = std::env::temp_dir().join("pelican-io-resume-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();

        let mut a = net(13);
        step_once(&mut a);
        for epoch in [1usize, 2, 3] {
            save_checkpoint(
                &mut a,
                CheckpointMeta {
                    epoch,
                    learning_rate: 0.01,
                },
                dir.join(checkpoint_filename(epoch)),
            )
            .expect("save");
        }
        // Corrupt the newest file: resume must fall back to epoch 2.
        let newest = dir.join(checkpoint_filename(3));
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();

        let mut b = net(14);
        let (path, meta) = resume_latest(&mut b, &dir).expect("scan").expect("found");
        assert_eq!(meta.epoch, 2);
        assert_eq!(path, dir.join(checkpoint_filename(2)));
        // No .tmp files left behind by atomic saves.
        assert!(std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .all(|e| e.path().extension().is_some_and(|x| x == "plcn")));

        // Missing directory is a clean None.
        let mut c = net(15);
        assert!(resume_latest(&mut c, dir.join("missing"))
            .expect("scan")
            .is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_are_displayable_and_sourced() {
        let e = IoError::Format("x".into());
        assert!(!e.to_string().is_empty());
        let io = IoError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(io.source().is_some());
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
