//! Model checkpoint serialization.
//!
//! Fitting a model at evaluation scale takes seconds to minutes; checkpoints
//! let downstream users fit once and reload instantly. The format is a
//! simple little-endian binary container (magic + version + sections), with
//! no external dependencies.
//!
//! Version 2 embeds the scene's registry name as a length-prefixed string
//! right after the version word, so a checkpoint of any registered scene —
//! including custom ones added via `asdr_scenes::registry::register` —
//! round-trips with enough information to find its scene again. Version 3
//! adds the steps of the integer MLPs ([`MlpScales`]) after the two MLPs, so
//! a load re-derives the `i8` weights from the `f32` ones without running
//! the calibration; a version-2 file still loads, and is calibrated on read.
//! Version 1 (no name) is no longer read: such a file is a
//! [`LoadError::BadVersion`], which a model store answers by refitting.

use crate::embedding::EmbeddingSet;
use crate::encoder::HashEncoder;
use crate::grid::GridConfig;
use crate::mlp::{Activation, Dense, Mlp, MAX_INT_INPUTS, MAX_INT_OUTPUTS};
use crate::model::{MlpScales, NgpModel, COLOR_IN_DIM, DENSITY_OUT_DIM, HIDDEN_DIM};
use crate::occupancy::OccupancyGrid;
use asdr_math::{Aabb, Vec3};
use std::io::{self, Read, Write};
use std::path::Path;

/// File magic: `ASDRNGP\0`.
pub const MAGIC: [u8; 8] = *b"ASDRNGP\0";
/// The format version written; it and the one before are read.
pub const VERSION: u32 = 3;
/// Longest scene name (bytes) a checkpoint may carry; the reader treats
/// longer length fields as corruption and the writer refuses to emit them.
pub const MAX_SCENE_NAME: usize = 256;

/// A loaded checkpoint: the model plus the scene name the file was saved
/// under.
#[derive(Debug)]
pub struct Checkpoint {
    /// The reconstructed model.
    pub model: NgpModel,
    /// Registry name of the scene the model was fitted to, if recorded.
    pub scene: Option<String>,
}

/// Errors from checkpoint loading.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not an ASDR checkpoint.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// Structurally invalid content.
    Corrupt(&'static str),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::BadMagic => f.write_str("not an ASDR checkpoint (bad magic)"),
            LoadError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            LoadError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

fn w_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn w_f32<W: Write>(w: &mut W, v: f32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn w_f32s<W: Write>(w: &mut W, vs: &[f32]) -> io::Result<()> {
    w_u32(w, vs.len() as u32)?;
    for v in vs {
        w_f32(w, *v)?;
    }
    Ok(())
}

fn r_u32<R: Read>(r: &mut R) -> Result<u32, LoadError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn r_f32<R: Read>(r: &mut R) -> Result<f32, LoadError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(f32::from_le_bytes(b))
}

/// Reads a length-prefixed array of model parameters (embedding rows, MLP
/// weights, biases). The format has no checksum, so a flipped bit can make
/// any of them NaN or infinite, and `Activation::Relu` would quietly turn the
/// NaNs that follow into black pixels: such a file is corrupt.
fn r_f32s<R: Read>(r: &mut R, cap: usize) -> Result<Vec<f32>, LoadError> {
    let n = r_u32(r)? as usize;
    if n > cap {
        return Err(LoadError::Corrupt("oversized float array"));
    }
    let mut out = vec![0.0f32; n];
    let mut buf = vec![0u8; n * 4];
    r.read_exact(&mut buf)?;
    for (i, chunk) in buf.chunks_exact(4).enumerate() {
        out[i] = f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    // `fold`, not `all`: without the early exit the scan vectorises, +1 % of
    // a load where `all` cost +15 %
    if !out.iter().fold(true, |ok, v| ok & v.is_finite()) {
        return Err(LoadError::Corrupt("non-finite parameter"));
    }
    Ok(out)
}

fn write_mlp<W: Write>(w: &mut W, mlp: &Mlp) -> io::Result<()> {
    w_u32(w, mlp.layers().len() as u32)?;
    for layer in mlp.layers() {
        w_u32(w, layer.in_dim() as u32)?;
        w_u32(w, layer.out_dim() as u32)?;
        w_u32(w, matches!(layer.activation(), Activation::Relu) as u32)?;
        w_f32s(w, &layer.export_row_major())?;
        w_f32s(w, layer.bias())?;
    }
    Ok(())
}

/// Reads an MLP: its hidden layers end in ReLU and its last in none, and no
/// layer is wider than an integer layer — what the model's integer copies
/// need.
fn read_mlp<R: Read>(r: &mut R) -> Result<Mlp, LoadError> {
    let n_layers = r_u32(r)? as usize;
    if n_layers == 0 || n_layers > 16 {
        return Err(LoadError::Corrupt("implausible layer count"));
    }
    let mut layers = Vec::with_capacity(n_layers);
    for k in 0..n_layers {
        let in_dim = r_u32(r)? as usize;
        let out_dim = r_u32(r)? as usize;
        if in_dim == 0 || out_dim == 0 || in_dim > MAX_INT_INPUTS || out_dim > MAX_INT_OUTPUTS {
            return Err(LoadError::Corrupt("implausible layer shape"));
        }
        if layers.last().is_some_and(|l: &Dense| l.out_dim() != in_dim) {
            return Err(LoadError::Corrupt("layer dimension mismatch"));
        }
        let act = if r_u32(r)? != 0 { Activation::Relu } else { Activation::None };
        if (act == Activation::Relu) != (k + 1 < n_layers) {
            return Err(LoadError::Corrupt("hidden layers end in ReLU, the last in none"));
        }
        let weights = r_f32s(r, in_dim * out_dim)?;
        let bias = r_f32s(r, out_dim)?;
        if weights.len() != in_dim * out_dim || bias.len() != out_dim {
            return Err(LoadError::Corrupt("layer payload size mismatch"));
        }
        let mut layer = Dense::zeros(in_dim, out_dim, act);
        layer.import_row_major(&weights);
        layer.bias_mut().copy_from_slice(&bias);
        layers.push(layer);
    }
    Ok(Mlp::new(layers))
}

/// Writes a model checkpoint tagged with its scene's registry name.
///
/// # Errors
///
/// Returns any underlying I/O error, or `InvalidInput` if `scene` exceeds
/// [`MAX_SCENE_NAME`] bytes (the reader rejects longer names, so writing
/// one would produce an unloadable file).
pub fn save_model<W: Write>(model: &NgpModel, scene: &str, w: &mut W) -> io::Result<()> {
    if scene.len() > MAX_SCENE_NAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("scene name exceeds {MAX_SCENE_NAME} bytes"),
        ));
    }
    w.write_all(&MAGIC)?;
    w_u32(w, VERSION)?;
    let name = scene.as_bytes();
    w_u32(w, name.len() as u32)?;
    w.write_all(name)?;
    // grid config
    let cfg = model.encoder().config();
    w_u32(w, cfg.levels as u32)?;
    w_u32(w, cfg.base_res)?;
    w_u32(w, cfg.max_res)?;
    w_u32(w, cfg.table_size)?;
    w_u32(w, cfg.feat_dim as u32)?;
    // embeddings
    for l in 0..cfg.levels {
        w_f32s(w, model.encoder().tables().table(l).params())?;
    }
    // MLPs
    write_mlp(w, model.density_mlp())?;
    write_mlp(w, model.color_mlp())?;
    w_f32s(w, model.scales().density())?;
    w_f32s(w, model.scales().color())?;
    // bounds
    let b = model.bounds();
    for v in [b.min, b.max] {
        w_f32(w, v.x)?;
        w_f32(w, v.y)?;
        w_f32(w, v.z)?;
    }
    // occupancy (re-derived on load would need the field; store the bits)
    let occ = model.occupancy();
    w_u32(w, occ.res() as u32)?;
    w_u32(w, occ.bits().len() as u32)?;
    w.write_all(occ.bits())?;
    Ok(())
}

/// Reads a model checkpoint.
///
/// # Errors
///
/// Returns [`LoadError`] for I/O failures or malformed files.
pub fn load_model<R: Read>(r: &mut R) -> Result<Checkpoint, LoadError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(LoadError::BadMagic);
    }
    let version = r_u32(r)?;
    if !(VERSION - 1..=VERSION).contains(&version) {
        return Err(LoadError::BadVersion(version));
    }
    let n = r_u32(r)? as usize;
    if n > MAX_SCENE_NAME {
        return Err(LoadError::Corrupt("oversized scene name"));
    }
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf)?;
    let name = String::from_utf8(buf).map_err(|_| LoadError::Corrupt("scene name is not UTF-8"))?;
    let scene = (!name.is_empty()).then_some(name);
    let cfg = GridConfig {
        levels: r_u32(r)? as usize,
        base_res: r_u32(r)?,
        max_res: r_u32(r)?,
        table_size: r_u32(r)?,
        feat_dim: r_u32(r)? as usize,
    };
    cfg.validate().map_err(|_| LoadError::Corrupt("invalid grid config"))?;
    let mut set = EmbeddingSet::new(&cfg);
    for l in 0..cfg.levels {
        let params = r_f32s(r, set.table(l).params().len())?;
        if params.len() != set.table(l).params().len() {
            return Err(LoadError::Corrupt("embedding size mismatch"));
        }
        set.table_mut(l).params_mut().copy_from_slice(&params);
    }
    let density = read_mlp(r)?;
    let color = read_mlp(r)?;
    // the integer MLPs have at least one hidden layer, each at the models'
    // one width
    let hidden_fit = |mlp: &Mlp| {
        let (_, hidden) = mlp.layers().split_last().expect("read_mlp reads at least one layer");
        !hidden.is_empty() && hidden.iter().all(|l| l.out_dim() == HIDDEN_DIM)
    };
    if density.in_dim() != cfg.encoded_dim()
        || density.out_dim() != DENSITY_OUT_DIM
        || color.in_dim() != COLOR_IN_DIM
        || color.out_dim() != 3
        || !hidden_fit(&density)
        || !hidden_fit(&color)
    {
        return Err(LoadError::Corrupt("MLP shapes do not fit the model"));
    }
    let scales = if version == VERSION {
        let (d, c) = (r_f32s(r, density.layers().len())?, r_f32s(r, color.layers().len() + 1)?);
        let scales = MlpScales::new(d, c, &density, &color);
        Some(scales.ok_or(LoadError::Corrupt("invalid MLP steps"))?)
    } else {
        None
    };
    let mut v = [0.0f32; 6];
    for x in &mut v {
        *x = r_f32(r)?;
    }
    if !v.iter().all(|x| x.is_finite()) || v[0] > v[3] || v[1] > v[4] || v[2] > v[5] {
        return Err(LoadError::Corrupt("invalid bounds"));
    }
    let bounds = Aabb::new(Vec3::new(v[0], v[1], v[2]), Vec3::new(v[3], v[4], v[5]));
    let res = r_u32(r)? as usize;
    if res == 0 || res > OccupancyGrid::MAX_RES {
        return Err(LoadError::Corrupt("implausible occupancy resolution"));
    }
    let n_bytes = r_u32(r)? as usize;
    if n_bytes != (res * res * res).div_ceil(8) {
        return Err(LoadError::Corrupt("occupancy payload size mismatch"));
    }
    let mut bits = vec![0u8; n_bytes];
    r.read_exact(&mut bits)?;
    let occupancy = OccupancyGrid::from_bits(res, bounds, bits)
        .map_err(|_| LoadError::Corrupt("occupancy rebuild failed"))?;
    let encoder = HashEncoder::new(cfg, set);
    let model = match scales {
        Some(s) => NgpModel::with_scales(encoder, density, color, bounds, occupancy, s),
        None => NgpModel::new(encoder, density, color, bounds, occupancy),
    };
    Ok(Checkpoint { model, scene })
}

/// Saves a model to a file path, tagged with its scene's registry name.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn save_model_file<P: AsRef<Path>>(model: &NgpModel, scene: &str, path: P) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    let mut w = io::BufWriter::new(f);
    save_model(model, scene, &mut w)
}

/// Loads a checkpoint from a file path.
///
/// # Errors
///
/// Returns [`LoadError`] for I/O failures or malformed files.
pub fn load_model_file<P: AsRef<Path>>(path: P) -> Result<Checkpoint, LoadError> {
    let f = std::fs::File::open(path)?;
    let mut r = io::BufReader::new(f);
    load_model(&mut r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::fit_ngp;
    use asdr_math::Rgb;
    use asdr_scenes::registry;

    fn fitted(scene: &str) -> NgpModel {
        fit_ngp(registry::handle(scene).build().as_ref(), &GridConfig::tiny())
    }

    fn roundtrip(model: &NgpModel, scene: &str) -> Checkpoint {
        let mut buf = Vec::new();
        save_model(model, scene, &mut buf).unwrap();
        load_model(&mut buf.as_slice()).unwrap()
    }

    #[test]
    fn checkpoint_roundtrip_preserves_queries() {
        let model = fitted("Mic");
        let ckpt = roundtrip(&model, "Mic");
        assert_eq!(ckpt.scene.as_deref(), Some("Mic"));
        let loaded = ckpt.model;
        let mut s1 = model.make_scratch();
        let mut s2 = loaded.make_scratch();
        for i in 0..50 {
            let p = Vec3::new(
                (i as f32 * 0.137).sin() * 0.8,
                (i as f32 * 0.311).cos() * 0.8,
                (i as f32 * 0.071).sin() * 0.8,
            );
            let dir = Vec3::new(0.3, -0.5, 0.8).normalized();
            let (sig_a, col_a) = model.query_point(p, dir, &mut s1);
            let (sig_b, col_b): (f32, Rgb) = loaded.query_point(p, dir, &mut s2);
            assert_eq!(sig_a, sig_b, "density differs at {p}");
            assert_eq!(col_a, col_b, "color differs at {p}");
        }
    }

    #[test]
    fn file_roundtrip_works() {
        let model = fitted("Chair");
        let dir = std::env::temp_dir().join("asdr_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chair.asdr");
        save_model_file(&model, "Chair", &path).unwrap();
        let ckpt = load_model_file(&path).unwrap();
        assert_eq!(ckpt.scene.as_deref(), Some("Chair"));
        assert_eq!(ckpt.model.encoder().config(), model.encoder().config());
        assert_eq!(ckpt.model.bounds(), model.bounds());
    }

    #[test]
    fn custom_scene_names_round_trip() {
        // a registered custom scene's name survives the checkpoint — the
        // point of the v2 header
        let model = fitted("Mic");
        let ckpt = roundtrip(&model, "my-custom-scene");
        assert_eq!(ckpt.scene.as_deref(), Some("my-custom-scene"));
    }

    #[test]
    fn a_hidden_layer_of_another_width_is_rejected_as_corrupt() {
        let model = fitted("Mic");
        let mut buf = Vec::new();
        save_model(&model, "Mic", &mut buf).unwrap();
        let mut density = Vec::new();
        write_mlp(&mut density, model.density_mlp()).unwrap();
        // the same density MLP, its hidden layer 32 wide instead of 64
        let enc = model.encoder().encoded_dim();
        let narrow = Mlp::new(vec![
            Dense::zeros(enc, 32, Activation::Relu),
            Dense::zeros(32, DENSITY_OUT_DIM, Activation::None),
        ]);
        let mut patch = Vec::new();
        write_mlp(&mut patch, &narrow).unwrap();
        let at = buf.windows(density.len()).position(|w| w == density).unwrap();
        buf.splice(at..at + density.len(), patch);
        let err = load_model(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, LoadError::Corrupt("MLP shapes do not fit the model")), "{err}");
    }

    #[test]
    fn a_one_layer_mlp_is_rejected_as_corrupt() {
        let model = fitted("Mic");
        let mut buf = Vec::new();
        save_model(&model, "Mic", &mut buf).unwrap();
        // the density MLP and its steps, then the same with one layer
        // straight to the 16 outputs and only the input step: a file whose
        // every length agrees, which the integer MLPs cannot run
        let mlp_and_steps = |mlp: &Mlp, steps: &[f32]| {
            let mut bytes = Vec::new();
            write_mlp(&mut bytes, mlp).unwrap();
            write_mlp(&mut bytes, model.color_mlp()).unwrap();
            w_f32s(&mut bytes, steps).unwrap();
            bytes
        };
        let steps = model.scales().density();
        let whole = mlp_and_steps(model.density_mlp(), steps);
        let enc = model.encoder().encoded_dim();
        let one = Mlp::new(vec![Dense::zeros(enc, DENSITY_OUT_DIM, Activation::None)]);
        let at = buf.windows(whole.len()).position(|w| w == whole).unwrap();
        buf.splice(at..at + whole.len(), mlp_and_steps(&one, &steps[..1]));
        let err = load_model(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, LoadError::Corrupt("MLP shapes do not fit the model")), "{err}");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = load_model(&mut &b"NOTANGP\0restoffile"[..]).unwrap_err();
        assert!(matches!(err, LoadError::BadMagic), "{err}");
    }

    #[test]
    fn truncated_file_is_rejected() {
        let model = fitted("Mic");
        let mut buf = Vec::new();
        save_model(&model, "Mic", &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        let err = load_model(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, LoadError::Io(_) | LoadError::Corrupt(_)), "{err}");
    }

    #[test]
    fn non_finite_parameters_are_rejected() {
        let model = fitted("Mic");
        let mut buf = Vec::new();
        save_model(&model, "Mic", &mut buf).unwrap();
        // where the first float of each kind of parameter sits in the file
        let tables = model.encoder().tables();
        let levels = model.encoder().config().levels;
        let first_embedding = 8 + 4 + (4 + "Mic".len()) + 5 * 4 + 4;
        let embeddings: usize = (0..levels).map(|l| 4 + 4 * tables.table(l).params().len()).sum();
        let first_weight = first_embedding - 4 + embeddings + 4 + 3 * 4 + 4;
        let layer = &model.density_mlp().layers()[0];
        let first_bias = first_weight + 4 * layer.in_dim() * layer.out_dim() + 4;
        let float_at =
            |buf: &[u8], at: usize| f32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
        assert_eq!(float_at(&buf, first_embedding), tables.table(0).params()[0]);
        assert_eq!(float_at(&buf, first_weight), layer.export_row_major()[0]);
        assert_eq!(float_at(&buf, first_bias), layer.bias()[0]);
        for at in [first_embedding, first_weight, first_bias] {
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut flipped = buf.clone();
                flipped[at..at + 4].copy_from_slice(&bad.to_le_bytes());
                match load_model(&mut flipped.as_slice()) {
                    Err(LoadError::Corrupt("non-finite parameter")) => {}
                    other => panic!("{bad} at byte {at}: {:?}", other.map(|c| c.scene)),
                }
            }
        }
        // the six floats of the bounds are checked too: min ≤ max, all finite
        let occupancy = 4 + 4 + model.occupancy().res().pow(3).div_ceil(8);
        let bounds = buf.len() - occupancy - 6 * 4;
        assert_eq!(float_at(&buf, bounds), model.bounds().min.x);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut flipped = buf.clone();
            flipped[bounds..bounds + 4].copy_from_slice(&bad.to_le_bytes());
            let err = load_model(&mut flipped.as_slice()).unwrap_err();
            assert!(matches!(err, LoadError::Corrupt("invalid bounds")), "{bad}: {err}");
        }
        assert!(load_model(&mut buf.as_slice()).is_ok(), "the untouched file still loads");
    }

    #[test]
    fn grid_configs_out_of_bounds_are_rejected_as_corrupt() {
        let model = fitted("Mic");
        let mut buf = Vec::new();
        save_model(&model, "Mic", &mut buf).unwrap();
        // levels, base_res, max_res, table_size, feat_dim follow the name
        let header = 8 + 4 + 4 + "Mic".len();
        let tiny = GridConfig::tiny();
        let (levels, base, max, table) = (8, tiny.base_res, tiny.max_res, tiny.table_size);
        for fields in [
            // loaded, then panicked at the first encode: a table of 0 rows
            [2, 2, u32::MAX, table],
            [levels, base, GridConfig::MAX_RES + 1, table],
            [GridConfig::MAX_LEVELS as u32 + 1, base, max, table],
            [u32::MAX, base, max, table],
            [levels, base, max, GridConfig::MAX_TABLE_SIZE * 2],
        ] {
            let mut bad = buf.clone();
            for (i, v) in fields.into_iter().enumerate() {
                bad[header + 4 * i..header + 4 * i + 4].copy_from_slice(&v.to_le_bytes());
            }
            match load_model(&mut bad.as_slice()) {
                Err(LoadError::Corrupt("invalid grid config")) => {}
                other => panic!("{fields:?}: {:?}", other.map(|c| c.scene)),
            }
        }
    }

    /// `model`'s checkpoint as version 2 wrote it: no steps.
    fn as_version_2(model: &NgpModel, scene: &str) -> Vec<u8> {
        let mut buf = Vec::new();
        save_model(model, scene, &mut buf).unwrap();
        let occupancy = 4 + 4 + model.occupancy().res().pow(3).div_ceil(8);
        let steps = 4 * (2 + model.scales().density().len() + model.scales().color().len());
        let scales = buf.len() - occupancy - 6 * 4 - steps;
        buf.drain(scales..scales + steps);
        buf[8..12].copy_from_slice(&2u32.to_le_bytes());
        buf
    }

    #[test]
    fn a_version_2_file_is_calibrated_on_read_to_the_steps_a_fit_stores() {
        let model = fitted("Mic");
        let loaded = load_model(&mut as_version_2(&model, "Mic").as_slice()).unwrap().model;
        assert_eq!(loaded.scales(), model.scales());
        assert_eq!(loaded.int_mlps(), model.int_mlps());
        let mut buf = Vec::new();
        save_model(&loaded, "Mic", &mut buf).unwrap();
        let mut again = Vec::new();
        save_model(&model, "Mic", &mut again).unwrap();
        assert_eq!(buf, again, "a v2 file saves as the fit's v3 file");
    }

    #[test]
    fn steps_that_are_not_positive_and_finite_are_rejected() {
        let model = fitted("Mic");
        let mut buf = Vec::new();
        save_model(&model, "Mic", &mut buf).unwrap();
        let occupancy = 4 + 4 + model.occupancy().res().pow(3).div_ceil(8);
        // the colour MLP's last step sits right before the bounds
        let last_step = buf.len() - occupancy - 6 * 4 - 4;
        let step = f32::from_le_bytes(buf[last_step..last_step + 4].try_into().unwrap());
        assert_eq!(step, *model.scales().color().last().unwrap());
        for (bad, why) in [
            (0.0f32, "invalid MLP steps"),
            (-1.0, "invalid MLP steps"),
            (f32::NAN, "non-finite parameter"),
        ] {
            let mut flipped = buf.clone();
            flipped[last_step..last_step + 4].copy_from_slice(&bad.to_le_bytes());
            match load_model(&mut flipped.as_slice()) {
                Err(LoadError::Corrupt(w)) if w == why => {}
                other => panic!("{bad}: {:?}", other.map(|c| c.scene)),
            }
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let model = fitted("Mic");
        let mut buf = Vec::new();
        save_model(&model, "Mic", &mut buf).unwrap();
        // 1 is the retired nameless format, 99 one nobody has written yet
        for version in [1u8, 99] {
            buf[8] = version;
            let err = load_model(&mut buf.as_slice()).unwrap_err();
            assert!(matches!(err, LoadError::BadVersion(v) if v == u32::from(version)), "{err}");
        }
    }

    #[test]
    fn oversized_scene_name_is_rejected() {
        let model = fitted("Mic");
        let mut buf = Vec::new();
        save_model(&model, "Mic", &mut buf).unwrap();
        // clobber the name length to something absurd
        buf[12..16].copy_from_slice(&(10_000u32).to_le_bytes());
        let err = load_model(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, LoadError::Corrupt(_)), "{err}");
        // and the writer refuses to produce such a file in the first place
        let err = save_model(&model, &"x".repeat(MAX_SCENE_NAME + 1), &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
